package main

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"runtime"
	"slices"
	"time"

	"dssp/internal/dssp"
	"dssp/internal/engine"
	"dssp/internal/sqlparse"
	"dssp/internal/template"
	"dssp/internal/wire"
)

// allocSampleEvery is the stride of the deterministic op sample on which
// the ledger brackets its calls with runtime.ReadMemStats. With one
// client the Mallocs delta of a bracketed call is exact.
const allocSampleEvery = 8

// call accumulates one shadow-timed layer call.
type call struct {
	n      int64
	total  time.Duration
	allocN int64
	allocs uint64
}

func (c *call) add(d time.Duration) { c.n++; c.total += d }
func (c *call) meanUs() float64     { return perCall(c.total, c.n) }
func (c *call) allocsPerCall() float64 {
	if c.allocN == 0 {
		return 0
	}
	return float64(c.allocs) / float64(c.allocN)
}

// ledger is the traced repetition's bookkeeping between ops. After every
// reply — outside every span — it runs the query directly on the master
// database (the correctness oracle, whose timing on misses doubles as
// the engine's ledger entry, since a miss executed the same statement on
// the same state an instant earlier) and replays, on the op's own
// inputs, the wire-codec calls that happen inside product code where no
// decorator reaches.
type ledger struct {
	sys            *sut
	sealedOverhead int // what Keyring.Seal adds to a plaintext

	stale  int
	digest hash.Hash

	sealQuery, sealUpdate, openResult, openPayload, sealResult call
	engine                                                     call
	engineLat                                                  []time.Duration
	engineByTmpl                                               map[string]time.Duration
	rowsScanned                                                int64

	resultBytes, results int64
	encBytes             int64   // bytes through Keyring.Seal/Open over the script
	sealLens, openLens   []int32 // sampled plaintext lengths, for the encrypt pass
}

func newLedger() *ledger {
	return &ledger{digest: sha256.New(), engineByTmpl: make(map[string]time.Duration)}
}

// attach points the ledger at the system whose replies it checks.
func (l *ledger) attach(sys *sut) {
	l.sys = sys
	l.sealedOverhead = len(sys.keyring.Seal("bench", nil))
}

func (l *ledger) resultDigest() string { return hex.EncodeToString(l.digest.Sum(nil)[:8]) }

// fingerprint is a result's canonical form: ordered when the statement
// orders its rows, a multiset otherwise.
func fingerprint(t *template.Template, r *engine.Result) string {
	return r.Fingerprint(len(t.Stmt.(*sqlparse.SelectStmt).OrderBy) > 0)
}

// sameAsMaster reports whether a reply equals the query run directly on
// the master database now. With one client and inline invalidation any
// difference is a stale read.
func sameAsMaster(sys *sut, op *boundOp, got *engine.Result) bool {
	want, err := engine.ExecQuery(sys.db, op.t.Stmt.(*sqlparse.SelectStmt), op.vals)
	return err == nil && fingerprint(op.t, got) == fingerprint(op.t, want)
}

// timed runs f, bracketing it with ReadMemStats when sampled.
func timed(c *call, sampled bool, f func()) {
	var m0, m1 runtime.MemStats
	if sampled {
		runtime.ReadMemStats(&m0)
	}
	t0 := time.Now()
	f()
	c.add(time.Since(t0))
	if sampled {
		runtime.ReadMemStats(&m1)
		c.allocN++
		c.allocs += m1.Mallocs - m0.Mallocs
	}
}

// after is called once per successful op, with the reply when the op
// is a query.
func (l *ledger) after(i int, op *boundOp, res *dssp.QueryResult) {
	if op.query {
		l.afterQuery(i, op, res)
	} else {
		l.afterUpdate(op)
	}
}

func (l *ledger) afterQuery(i int, op *boundOp, res *dssp.QueryResult) {
	sampled := i%allocSampleEvery == 0
	codec, t, vals := l.sys.codec, op.t, op.vals

	// Oracle first, while the database is exactly as the reply saw it.
	var oracle call
	var want *engine.Result
	var err error
	timed(&oracle, sampled, func() {
		want, err = engine.ExecQuery(l.sys.db, t.Stmt.(*sqlparse.SelectStmt), vals)
	})
	fp := fingerprint(t, res.Result)
	if err != nil || fp != fingerprint(t, want) {
		l.stale++
	}
	l.digest.Write([]byte(fp))
	l.digest.Write([]byte{0})
	if err != nil {
		return
	}

	var sq wire.SealedQuery
	timed(&l.sealQuery, sampled, func() { sq, _ = codec.SealQuery(t, vals) })
	payload := len(sq.Opaque) - l.sealedOverhead
	l.encBytes += int64(payload)
	l.lens(&l.sealLens, i, payload)

	var sealed wire.SealedResult
	if res.Outcome.Hit {
		sealed = codec.SealResult(t, want)
	} else {
		l.engine.n, l.engine.total = l.engine.n+1, l.engine.total+oracle.total
		l.engine.allocN, l.engine.allocs = l.engine.allocN+oracle.allocN, l.engine.allocs+oracle.allocs
		l.engineLat = append(l.engineLat, oracle.total)
		l.engineByTmpl[t.ID] += oracle.total
		l.rowsScanned += int64(want.RowsScanned)
		timed(&l.openPayload, false, func() { _, _, _ = codec.OpenPayload(sq.Opaque) })
		timed(&l.sealResult, false, func() { sealed = codec.SealResult(t, want) })
		l.encBytes += int64(payload)
		l.lens(&l.openLens, i, payload)
		if sealed.Cipher != nil {
			l.encBytes += int64(len(sealed.Cipher) - l.sealedOverhead)
			l.lens(&l.sealLens, i, len(sealed.Cipher)-l.sealedOverhead)
		}
	}
	timed(&l.openResult, sampled, func() { _, _ = codec.OpenResult(sealed) })
	if sealed.Cipher != nil {
		l.encBytes += int64(len(sealed.Cipher) - l.sealedOverhead)
		l.lens(&l.openLens, i, len(sealed.Cipher)-l.sealedOverhead)
	}
	l.resultBytes += int64(sealed.Size())
	l.results++
}

func (l *ledger) afterUpdate(op *boundOp) {
	codec := l.sys.codec
	var su wire.SealedUpdate
	timed(&l.sealUpdate, false, func() { su, _ = codec.SealUpdate(op.t, op.vals) })
	timed(&l.openPayload, false, func() { _, _, _ = codec.OpenPayload(su.Opaque) })
	l.encBytes += 2 * int64(len(su.Opaque)-l.sealedOverhead)
}

// lens keeps every allocSampleEvery-th op's message lengths.
func (l *ledger) lens(dst *[]int32, i, n int) {
	if i%allocSampleEvery == 0 {
		*dst = append(*dst, int32(n))
	}
}

// encryptNsPerByte times Keyring.Seal and Keyring.Open over the message
// lengths the run observed.
func (l *ledger) encryptNsPerByte() (seal, open float64) {
	kr := l.sys.keyring
	perByte := func(lens []int32, prepare func(n int32) []byte, f func(p []byte)) float64 {
		var bytes int64
		var total time.Duration
		for _, n := range lens {
			p := prepare(n)
			t0 := time.Now()
			f(p)
			total += time.Since(t0)
			bytes += int64(n)
		}
		if bytes == 0 {
			return 0
		}
		return float64(total.Nanoseconds()) / float64(bytes)
	}
	plain := func(n int32) []byte { return make([]byte, n) }
	seal = perByte(l.sealLens, plain, func(p []byte) { _ = kr.Seal("bench", p) })
	open = perByte(l.openLens,
		func(n int32) []byte { return kr.Seal("bench", plain(n)) },
		func(ct []byte) { _, _ = kr.Open("bench", ct) })
	return seal, open
}

// top3Share is the share of engine time spent in its three costliest
// templates.
func (l *ledger) top3Share() float64 {
	if l.engine.total == 0 {
		return 0
	}
	ds := make([]time.Duration, 0, len(l.engineByTmpl))
	for _, d := range l.engineByTmpl {
		ds = append(ds, d)
	}
	slices.Sort(ds)
	var top time.Duration
	for i := len(ds) - 1; i >= 0 && i >= len(ds)-3; i-- {
		top += ds[i]
	}
	return float64(top) / float64(l.engine.total)
}
