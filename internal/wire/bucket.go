package wire

import (
	"encoding/binary"
	"math"
)

// Migration stream encoding: when ring membership changes, the moved
// template buckets' sealed entries travel from their old owner to the
// new one. Everything in a BucketEntry is material the exporting node
// already held — ciphertext, deterministic tokens, and routing metadata
// — so migration needs no keys and leaks nothing a node compromise
// would not already leak. Trace metadata (TraceID/ParentSpan) is
// per-request observability and deliberately does not travel.
//
// Wire grammar (query and result are the sealed-message grammar of
// sealed.go, the query in its NoTrace form):
//
//	entries = uvarint(n) entry*
//	entry   = query result uvarint(ordinal)
//	ids     = uvarint(n) str*

// BucketEntry is one sealed cache entry in flight between nodes during a
// ring rebalance. Ordinal is the entry's rank in the exporting cache's
// eviction order among the exported set — lower goes first — so the
// importing node can rebuild the same order.
type BucketEntry struct {
	Query   SealedQuery
	Result  SealedResult
	Ordinal int
}

// minEntryBytes is the shortest entry encoding: one byte each for
// exposure, templateID length, group, param count, key length, opaque
// length, result tag, and ordinal.
const minEntryBytes = 8

// AppendBucketEntries appends the migration encoding of entries to dst.
func AppendBucketEntries(dst []byte, entries []BucketEntry) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(entries)))
	for i := range entries {
		e := &entries[i]
		dst = AppendSealedQuery(dst, &e.Query, NoTrace)
		dst = AppendSealedResult(dst, &e.Result)
		dst = binary.AppendUvarint(dst, uint64(e.Ordinal))
	}
	return dst
}

// DecodeBucketEntries decodes a migration stream. Everything returned is
// freshly allocated — nothing aliases b.
func DecodeBucketEntries(b []byte) ([]BucketEntry, error) {
	n, b, err := decodeCount(b)
	if err != nil {
		return nil, errMalformed
	}
	// An entry is at least minEntryBytes on the wire, which bounds what a
	// forged count can make decode pre-allocate (an entry is ~25× that in
	// memory, so the byte-per-element bound of decodeCount is too loose).
	entries := make([]BucketEntry, 0, min(n, len(b)/minEntryBytes))
	for i := 0; i < n; i++ {
		entries = append(entries, BucketEntry{})
		e := &entries[i]
		if e.Query, b, err = DecodeSealedQuery(b, NoTrace); err != nil {
			return nil, err
		}
		if e.Result, b, err = DecodeSealedResult(b); err != nil {
			return nil, err
		}
		ord, rest, err := Uvarint(b)
		if err != nil || ord > math.MaxInt32 {
			return nil, errMalformed
		}
		e.Ordinal, b = int(ord), rest
	}
	if len(b) != 0 {
		return nil, errMalformed // trailing bytes: not a canonical encoding
	}
	return entries, nil
}

// AppendTemplateIDs appends a template-ID list (an export request body).
func AppendTemplateIDs(dst []byte, ids []string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ids)))
	for _, id := range ids {
		dst = appendString(dst, id)
	}
	return dst
}

// DecodeTemplateIDs decodes a template-ID list.
func DecodeTemplateIDs(b []byte) ([]string, error) {
	n, b, err := decodeCount(b)
	if err != nil {
		return nil, errMalformed
	}
	ids := make([]string, 0, n)
	for i := 0; i < n; i++ {
		var id string
		if id, b, err = decodeString(b); err != nil {
			return nil, errMalformed
		}
		ids = append(ids, id)
	}
	if len(b) != 0 {
		return nil, errMalformed
	}
	return ids, nil
}
