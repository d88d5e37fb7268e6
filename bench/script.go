package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"

	"dssp/internal/apps"
	"dssp/internal/sqlparse"
	"dssp/internal/storage"
	"dssp/internal/workload"
)

// scriptSessions is the number of emulated users whose pages are
// interleaved round-robin into one op script.
const scriptSessions = 64

// readOnlyKeep is the embed_write thinning stride: every page containing
// an update is kept, and every readOnlyKeep-th read-only page.
const readOnlyKeep = 8

// scriptOp is one statement of the op script, flattened to what the
// program under test receives: a template ID and its parameters.
type scriptOp struct {
	ID     string
	Params []sqlparse.Value
	Query  bool
}

// script is the fixed work of one (workload, seed): a warm-up prefix and
// a measured suffix of one continuous statement stream.
type script struct {
	Warm, Measured []scriptOp
	Digest         string // hash of every op, warm-up included
}

// genScript builds the op script for a seed before anything is timed:
// scriptSessions bookstore sessions, pages taken round-robin. With
// thin set, read-only pages are dropped except every readOnlyKeep-th;
// skipping a read-only page changes no database state, so the kept
// updates stay valid against the same initial data.
func genScript(seed int64, warm, measured int, thin bool) (*script, error) {
	b := apps.NewBookstore()
	// Populate resets the benchmark's fresh-key allocators to the end of
	// the initial data; sessions must start from that state.
	if err := b.Populate(storage.NewDatabase(b.App().Schema), rand.New(rand.NewSource(seed))); err != nil {
		return nil, fmt.Errorf("script: populate: %w", err)
	}
	sessions := make([]workload.Session, scriptSessions)
	for i := range sessions {
		sessions[i] = b.NewSession(rand.New(rand.NewSource(seed*1_000_003 + int64(i) + 1)))
	}
	total := warm + measured
	ops := make([]scriptOp, 0, total+16)
	readOnly := 0
	for p := 0; len(ops) < total; p++ {
		page := sessions[p%scriptSessions].NextPage()
		if thin && !hasUpdate(page) {
			readOnly++
			if readOnly%readOnlyKeep != 0 {
				continue
			}
		}
		for _, op := range page {
			ops = append(ops, scriptOp{ID: op.Template.ID, Params: op.Params, Query: !op.Template.Kind.IsUpdate()})
		}
	}
	ops = ops[:total]
	h := sha256.New()
	for _, op := range ops {
		fmt.Fprintf(h, "%s %s\n", op.ID, storage.Key(op.Params))
	}
	return &script{Warm: ops[:warm], Measured: ops[warm:], Digest: hex.EncodeToString(h.Sum(nil)[:8])}, nil
}

func hasUpdate(page []workload.Op) bool {
	for _, op := range page {
		if op.Template.Kind.IsUpdate() {
			return true
		}
	}
	return false
}

// updateShare is the fraction of ops that are updates.
func updateShare(ops []scriptOp) float64 {
	n := 0
	for _, op := range ops {
		if !op.Query {
			n++
		}
	}
	return float64(n) / float64(len(ops))
}
