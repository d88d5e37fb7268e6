package experiments

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"

	"dssp/internal/cache"
	"dssp/internal/core"
	"dssp/internal/dssp"
	"dssp/internal/encrypt"
	"dssp/internal/homeserver"
	"dssp/internal/storage"
	"dssp/internal/template"
	"dssp/internal/wire"
	"dssp/internal/workload"
)

// BatchRun is one batch-size configuration's measurement: the same update
// stream applied to an identically warmed cache, grouped into batches of
// Size (the monitoring-interval model: every update confirmed within one
// interval is invalidated in one pass).
type BatchRun struct {
	Size          int
	Batches       int
	Invalidations int
	BucketWalks   int // physical bucket probes under a shard lock
	LogIdentical  bool
	DumpIdentical bool
}

// BatchResult certifies that batched invalidation is a pure amortization:
// on the same sealed update stream, every batch size produces the decision
// log and final cache image of batches of one — what a node without a
// monitoring interval does — while walking each affected bucket once per
// batch instead of once per update.
type BatchResult struct {
	App     string
	Pages   int
	Queries int
	Updates int
	Entries int // cache entries at measurement start, identical per run

	// Runs[0] is size 1, the baseline every larger size's log, dump and
	// walk count are compared against; the requested sizes follow.
	Runs []BatchRun
}

// Passed reports whether every batch size above 1 reproduced the size-1
// decisions exactly while walking strictly fewer buckets.
func (r *BatchResult) Passed() bool {
	base := r.Runs[0]
	for _, run := range r.Runs[1:] {
		if !run.LogIdentical || !run.DumpIdentical ||
			run.Invalidations != base.Invalidations ||
			run.BucketWalks >= base.BucketWalks {
			return false
		}
	}
	return true
}

// WalkRatio reports size-1 walks over the given batch size's walks — the
// amortization factor the monitoring interval buys.
func (r *BatchResult) WalkRatio(size int) float64 {
	for _, run := range r.Runs {
		if run.Size == size && run.BucketWalks > 0 {
			return float64(r.Runs[0].BucketWalks) / float64(run.BucketWalks)
		}
	}
	return 0
}

// parityExposures assigns a deterministic mix of exposure levels so the
// replay exercises every strategy class, including blind entries and
// blind updates.
func parityExposures(app *template.App) map[string]template.Exposure {
	m := make(map[string]template.Exposure, len(app.Queries)+len(app.Updates))
	qcycle := []template.Exposure{template.ExpView, template.ExpStmt, template.ExpTemplate, template.ExpStmt, template.ExpBlind}
	for i, q := range app.Queries {
		m[q.ID] = qcycle[i%len(qcycle)]
	}
	ucycle := []template.Exposure{template.ExpStmt, template.ExpTemplate, template.ExpStmt, template.ExpBlind}
	for i, u := range app.Updates {
		m[u.ID] = ucycle[i%len(ucycle)]
	}
	return m
}

// BatchInvalidation replays a seeded benchmark workload to warm one DSSP
// node per batch-size configuration identically — every node stores the
// same sealed results, and no invalidation runs during the warm phase —
// then applies the workload's sealed update stream to each, grouped into
// batches of 1 (the baseline) and of each of sizes, which must all exceed
// 1. Decision logs and cache dumps are diffed byte for byte against the
// baseline's.
func BatchInvalidation(b workload.Benchmark, pages int, seed int64, sizes []int) (*BatchResult, error) {
	for _, size := range sizes {
		if size < 2 {
			return nil, fmt.Errorf("batch size %d: sizes are compared against size 1 and must exceed it", size)
		}
	}
	sizes = append([]int{1}, sizes...)
	rng := rand.New(rand.NewSource(seed))
	app := b.App()
	db := storage.NewDatabase(app.Schema)
	if err := b.Populate(db, rng); err != nil {
		return nil, err
	}
	master := make([]byte, encrypt.KeySize)
	rng.Read(master)
	codec := wire.NewCodec(app, encrypt.MustNewKeyring(master), parityExposures(app))
	analysis := core.Analyze(app, core.DefaultOptions())
	home := homeserver.New(db, app, codec)

	// Materialize the op stream first so every node replays identical
	// sealed messages and the decision logs are sized so nothing wraps.
	session := b.NewSession(rng)
	var ops []workload.Op
	updates := 0
	for p := 0; p < pages; p++ {
		page := session.NextPage()
		ops = append(ops, page...)
		for _, op := range page {
			if op.Template.Kind != template.KQuery {
				updates++
			}
		}
	}
	logSize := updates*(len(app.Queries)+2) + 16

	nodes := make([]*dssp.Node, len(sizes))
	for i := range nodes {
		nodes[i] = dssp.NewNode(app, analysis, cache.Options{DecisionLog: logSize})
	}

	// Warm phase: queries are cached on every node; updates execute on
	// the home server (so later results reflect them) and are collected
	// for the measurement phase, with no invalidation yet — all nodes
	// reach the measurement start in the identical state.
	res := &BatchResult{App: b.Name(), Pages: pages, Updates: updates}
	var stream []wire.SealedUpdate
	for _, op := range ops {
		if op.Template.Kind == template.KQuery {
			res.Queries++
			sq, err := codec.SealQuery(op.Template, op.Params)
			if err != nil {
				return nil, err
			}
			var sealed wire.SealedResult
			var empty, fetched bool
			for _, n := range nodes {
				if _, hit := n.HandleQuery(sq); hit {
					continue
				}
				if !fetched {
					sealed, empty, _, err = home.ExecQuery(sq)
					if err != nil {
						return nil, err
					}
					fetched = true
				}
				n.StoreResult(sq, sealed, empty)
			}
			continue
		}
		su, err := codec.SealUpdate(op.Template, op.Params)
		if err != nil {
			return nil, err
		}
		if _, _, err := home.ExecUpdate(su); err != nil {
			return nil, err
		}
		stream = append(stream, su)
	}
	res.Entries = nodes[0].Cache.Len()

	// Measurement: size 1 first, then each larger batch size against it.
	var baseLog []cache.Decision
	var baseDump []string
	for i, size := range sizes {
		n := nodes[i]
		run := BatchRun{Size: size}
		for off := 0; off < len(stream); off += size {
			end := off + size
			if end > len(stream) {
				end = len(stream)
			}
			for _, inv := range n.OnUpdatesCompleted(stream[off:end]) {
				run.Invalidations += inv
			}
			run.Batches++
		}
		run.BucketWalks = n.Cache.Stats().BucketWalks
		if i == 0 {
			baseLog, baseDump = n.Cache.Decisions(), n.Cache.Dump()
		}
		run.LogIdentical = reflect.DeepEqual(n.Cache.Decisions(), baseLog)
		run.DumpIdentical = reflect.DeepEqual(n.Cache.Dump(), baseDump)
		res.Runs = append(res.Runs, run)
	}
	return res, nil
}

// Format renders the batching summary.
func (r *BatchResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Batched invalidation on the %s workload (%d pages: %d queries, %d updates; %d warm entries)\n\n",
		r.App, r.Pages, r.Queries, r.Updates, r.Entries)
	rows := [][]string{{"batch size", "batches", "invalidations", "bucket walks", "walk ratio", "log", "dump"}}
	tick := func(ok bool) string {
		if ok {
			return "identical"
		}
		return "DIVERGED"
	}
	for _, run := range r.Runs {
		ratio := "1.00x"
		if run.BucketWalks > 0 {
			ratio = fmt.Sprintf("%.2fx", float64(r.Runs[0].BucketWalks)/float64(run.BucketWalks))
		}
		rows = append(rows, []string{fmt.Sprint(run.Size), fmt.Sprint(run.Batches), fmt.Sprint(run.Invalidations),
			fmt.Sprint(run.BucketWalks), ratio, tick(run.LogIdentical), tick(run.DumpIdentical)})
	}
	table(&b, rows)
	verdict := "IDENTICAL decisions, amortized walks"
	if !r.Passed() {
		verdict = "DIVERGED"
	}
	fmt.Fprintf(&b, "\nverdict: %s\n", verdict)
	return b.String()
}
