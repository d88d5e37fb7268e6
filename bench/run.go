package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"

	"dssp/internal/cache"
	"dssp/internal/core"
	"dssp/internal/dssp"
)

// auditOps is how many of the measured script's queries an untraced
// repetition re-issues after measuring, comparing each reply with the
// master database. (The traced repetition checks every reply instead.)
const auditOps = 2000

// runSeconds is BENCHMARK.json's run_seconds: about how long the timed
// repetitions of one run measure in total on the reference box. The op
// counts below are sized for it.
const runSeconds = 15

// workloadDef is one benchmark workload: a substrate, an exposure
// assignment, a cache size and a script shape, sized so one closed-loop
// client never saturates the box.
type workloadDef struct {
	name, why string
	fleet     bool // routed HTTP fleet instead of the in-process assembly
	view      bool // uniform view exposure instead of the methodology's
	capacity  int  // cache.Options.Capacity (0 = unbounded)
	thin      bool // drop read-only pages, keeping every readOnlyKeep-th
	warm      int  // warm-up ops per repetition
	measured  int  // measured ops per repetition
	reps      int  // timed repetitions per run
}

var workloads = []*workloadDef{
	{name: "embed_browse", warm: 40000, measured: 120000, reps: 6,
		why: "in-process client, methodology exposures, unbounded cache: the cache hit path (wire, encrypt, cache.Lookup, pipeline) is used"},
	{name: "embed_evict", view: true, capacity: 500, warm: 30000, measured: 100000, reps: 6,
		why: "results in the clear, cache of 500 entries: working set far above the cache, so encrypt and the hit path are bypassed and engine/homeserver/storage do the work"},
	{name: "embed_write", thin: true, warm: 20000, measured: 60000, reps: 6,
		why: "script thinned to one third updates: the cache is used the other way round, Cache.OnUpdate, invalidate and engine.ExecUpdate dominate"},
	{name: "fleet_browse", fleet: true, warm: 6000, measured: 22000, reps: 3,
		why: "the embed_browse script through router, two nodes and home over HTTP: httpapi and shard do the work, everything embed_* exposes is bypassed"},
}

func workloadByName(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// measures reports whether a per-layer metric can be taken on this
// workload's substrate.
func (w *workloadDef) measures(m metricDef) bool {
	return m.on == everywhere || (m.on == inFleet) == w.fleet
}

// script generates the workload's op script: an exact op count, so every
// count is a pure function of the seed.
func (w *workloadDef) script(seed int64) (*script, error) {
	return genScript(seed, w.warm, w.measured, w.thin)
}

// rep is what one repetition measured over its measured script.
type rep struct {
	pinned                int                   // the CPU it ran on (-1: not pinned)
	encrypted             int                   // query templates whose results are encrypted
	hops                  []*tracedRoundTripper // the fleet's hops (traced builds only)
	ops, queries, updates int
	failed                int
	rows                  int // result rows the client received
	wall, cpu             time.Duration
	hitWall, missWall     time.Duration // summed latency of hit and miss queries (traced loops only)
	mallocs, allocBytes   uint64
	gcCycles              uint32
	gcCPU                 time.Duration
	queryLat, updateLat   []time.Duration // sorted
	counts                counters        // added by the measured script
	final                 cache.Stats     // the caches' counters at the end, warm-up included
	entries, rowsTotal    int
	peakRSSMB             float64 // resident-set high-water mark since the repetition began
	setup                 setupTimes
	warm, setupTotal      time.Duration
	audited, stale        int
	digest                string // hash of reply fingerprints (ledger passes only)
}

func (r *rep) opsPerSec() float64 { return float64(r.ops) / r.wall.Seconds() }
func (r *rep) cpuUsPerOp() float64 {
	return r.cpu.Seconds() * 1e6 / float64(r.ops)
}
func (r *rep) homeExecs() int { return r.counts.homeExecs }
func (r *rep) hits() int      { return r.counts.cache.Hits }
func (r *rep) hitRate() float64 {
	return float64(r.counts.cache.Hits) / float64(r.counts.cache.Hits+r.counts.cache.Misses)
}

// quantileUs is the q-quantile of a sorted latency sample in µs.
func quantileUs(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return float64(sorted[int(q*float64(len(sorted)-1))].Nanoseconds()) / 1e3
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func gcCPUTime() time.Duration {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	return time.Duration(s[0].Value.Float64() * float64(time.Second))
}

// runRep builds a fresh system from the seed, warms it with the script's
// prefix and measures the suffix. With tr set the bench's decorators time
// every layer boundary; with led set every reply is checked against the
// master database.
func runRep(w *workloadDef, seed int64, sc *script, tr *tracer, led *ledger) (*rep, error) {
	runtime.GC()
	debug.FreeOSMemory()
	resetPeakRSS()

	t0 := time.Now()
	sys, err := buildSystem(w, seed, tr)
	if err != nil {
		return nil, err
	}
	r, err := runOn(sys, t0, sc, tr, led)
	if serr := sys.stop(); serr != nil && err == nil {
		err = fmt.Errorf("shutdown: %w", serr)
	}
	return r, err
}

func runOn(sys *sut, t0 time.Time, sc *script, tr *tracer, led *ledger) (*rep, error) {
	warm, err := sys.bind(sc.Warm)
	if err != nil {
		return nil, err
	}
	ops, err := sys.bind(sc.Measured)
	if err != nil {
		return nil, err
	}
	r := &rep{ops: len(ops), setup: sys.times, hops: sys.hops, encrypted: core.EncryptedResultCount(sys.app, sys.exposures)}
	for _, op := range ops {
		if op.query {
			r.queries++
		}
	}
	r.updates = r.ops - r.queries
	r.queryLat = make([]time.Duration, 0, r.queries)
	r.updateLat = make([]time.Duration, 0, r.updates)
	r.setup.build = time.Since(t0) - r.setup.analyze - r.setup.populate

	tw := time.Now()
	for i := range warm {
		if err := issue(sys.client, &warm[i]); err != nil {
			return nil, fmt.Errorf("warm-up op %d (%s): %w", i, warm[i].t.ID, err)
		}
	}
	runtime.GC()
	r.warm = time.Since(tw)
	r.setupTotal = time.Since(t0)

	if tr != nil {
		tr.reset()
	}
	if led != nil {
		led.attach(sys)
	}
	var ms0, ms1 runtime.MemStats
	before := sys.counters()
	runtime.ReadMemStats(&ms0)
	gc0, cpu0 := gcCPUTime(), cpuTime()
	if tr == nil && led == nil {
		measure(sys.client, ops, r)
	} else {
		measureTraced(sys.client, ops, r, tr, led)
	}
	r.cpu = cpuTime() - cpu0
	r.gcCPU = gcCPUTime() - gc0
	runtime.ReadMemStats(&ms1)
	after := sys.counters()
	r.counts, r.final = after.since(before), after.cache
	r.mallocs, r.allocBytes, r.gcCycles = ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc, ms1.NumGC-ms0.NumGC
	r.entries, r.rowsTotal = sys.entries(), sys.rowsTotal()
	r.peakRSSMB = peakRSSMB()
	slices.Sort(r.queryLat)
	slices.Sort(r.updateLat)

	if led == nil {
		audit(sys, ops, r)
	} else {
		r.audited, r.stale, r.digest = r.queries, led.stale, led.resultDigest()
	}
	return r, nil
}

func issue(c client, op *boundOp) error {
	if op.query {
		_, err := c.Query(op.t, op.args)
		return err
	}
	return c.Update(op.t, op.args)
}

// measure is the timed section: an exact op count, one clock read per op
// (an op's end is the next op's start), nothing generated inside.
func measure(c client, ops []boundOp, r *rep) {
	start := time.Now()
	prev := start
	for i := range ops {
		op := &ops[i]
		if op.query {
			res, err := c.Query(op.t, op.args)
			now := time.Now()
			r.queryLat = append(r.queryLat, now.Sub(prev))
			prev = now
			if err != nil {
				r.failed++
				continue
			}
			r.rows += res.Outcome.Rows
		} else {
			err := c.Update(op.t, op.args)
			now := time.Now()
			r.updateLat = append(r.updateLat, now.Sub(prev))
			prev = now
			if err != nil {
				r.failed++
			}
		}
	}
	r.wall = prev.Sub(start)
}

// measureTraced replays the measured script under the tracer, the
// ledger, or both. The ledger works between ops — outside every span and
// outside the latencies recorded here — checking the reply and timing
// the layer calls that cannot be bracketed in place. wall is the sum of
// op latencies.
func measureTraced(c client, ops []boundOp, r *rep, tr *tracer, led *ledger) {
	for i := range ops {
		op := &ops[i]
		var res *dssp.QueryResult
		var err error
		t0 := time.Now()
		if op.query {
			res, err = c.Query(op.t, op.args)
		} else {
			err = c.Update(op.t, op.args)
		}
		d := time.Since(t0)
		if tr != nil {
			tr.finishOp()
		}
		r.wall += d
		switch {
		case err != nil:
			r.failed++
			continue
		case !op.query:
			r.updateLat = append(r.updateLat, d)
		case res.Outcome.Hit:
			r.queryLat = append(r.queryLat, d)
			r.rows += res.Outcome.Rows
			r.hitWall += d
		default:
			r.queryLat = append(r.queryLat, d)
			r.rows += res.Outcome.Rows
			r.missWall += d
		}
		if led != nil {
			led.after(i, op, res)
		}
	}
}

// audit re-issues a fixed sample of the measured script's queries after
// measuring and compares each reply with the master database: a cached
// result an update should have invalidated shows up as a stale read.
func audit(sys *sut, ops []boundOp, r *rep) {
	stride := max(r.queries/auditOps, 1)
	q := 0
	for i := range ops {
		op := &ops[i]
		if !op.query {
			continue
		}
		if q++; q%stride != 0 {
			continue
		}
		res, err := sys.client.Query(op.t, op.args)
		if err != nil {
			r.failed++
			continue
		}
		r.audited++
		if !sameAsMaster(sys, op, res.Result) {
			r.stale++
		}
	}
}
