package main

import (
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"
)

// metricDef names one reported metric. bound is the share of the parent
// commit's median by which an end-to-end metric may get worse before a
// change counts as a regression (0 on per-layer metrics, which are never
// gated). BENCHMARK.json and the README's metric tables are printed from
// these tables (-print spec, -print glossary).
type metricDef struct {
	name, unit string
	higher     bool // better: higher
	bound      float64
	on         substrate // where a per-layer metric can be taken
	how        string    // how it is measured, for the glossary
}

// substrate says where the bench's instruments reach a layer: its
// decorators wrap the node cache, the pipeline and the home server only
// in process, and there are HTTP hops and a router only in the fleet. A
// per-layer metric that cannot be taken on a workload's substrate is left
// out of the listing and reads 0 in the result line.
type substrate uint8

const (
	everywhere substrate = iota
	inProcess
	inFleet
)

func (s substrate) String() string { return [...]string{"all", "embed_*", "fleet_browse"}[s] }

// Phrases the glossary repeats.
const (
	bestRep   = "; best repetition"
	spanOrRep = "span in the re-stated client (embed_*); ledger replay (fleet_browse)"
	replayed  = "ledger replay on the op's own inputs"
	oracle    = "the correctness oracle's own engine.ExecQuery on the ops that were misses: the home tier ran the same statement on the same state an instant earlier"
	cacheSpan = "span around the pipeline.Cache the pipeline is handed"
	rtSpan    = "http.RoundTripper wrapper in the hop's http.Client: request leaves → response body closed"
	hSpan     = "http.Handler wrapper around the server's Handler()"
	statsPerU = "Cache.Stats() delta over the measured script ÷ UpdatesSeen delta, summed over nodes"
	demoted   = "; taken on the timed repetitions. End-to-end in ISSUE 13; needs a bound above 10 % on the reference box, so reported and not gated"
)

var endToEnd = []metricDef{
	{name: "allocs_per_op", unit: "count", bound: 0.08,
		how: "MemStats.Mallocs delta over the measured script ÷ ops; exact for a seed (repetitions within 0.5 %)"},
	{name: "home_execs_per_kop", unit: "count", bound: 0.09,
		how: "statements the trusted home tier executed (QueriesServed + UpdatesApplied deltas) per 1000 client ops: the paper's currency — invalidation precision → hit rate → home load; exact for a seed"},
	{name: "peak_rss_mb", unit: "MB", bound: 0.10,
		how: "VmHWM at the end of a repetition, the mark reset when it began (/proc/self/clear_refs); median over the repetitions, because where the high-water mark lands depends on when the scavenger runs"},
	{name: "setup_s", unit: "s", bound: 0.25,
		how: "build + populate + boot + warm-up wall time of one repetition; median over the repetitions"},
}

var perLayer = []metricDef{
	{name: "ops_s", unit: "1/s", higher: true,
		how: "measured ops ÷ wall time of the measured script" + bestRep + demoted},
	{name: "query_p50_us", unit: "us",
		how: "client-observed query latency, seal → reply opened; median of query_samples values" + bestRep + demoted},
	{name: "query_p99_us", unit: "us",
		how: "99th percentile of the same sample (≥ 390 values beyond it on the embed workloads, 200 on the fleet)" + bestRep + demoted},
	{name: "update_p50_us", unit: "us",
		how: "client-observed update latency, seal → home confirmed → invalidation applied; median of update_samples values" + bestRep + demoted},
	{name: "cpu_us_per_op", unit: "us",
		how: "process user + system CPU (getrusage) over the measured script ÷ ops: the inverse of per-core capacity, which is what \"scalability\" is on one box" + bestRep + demoted},
	{name: "wire.seal_query_us", unit: "us", how: "mean per Codec.SealQuery; " + spanOrRep},
	{name: "wire.seal_update_us", unit: "us", how: "mean per Codec.SealUpdate; " + spanOrRep},
	{name: "wire.open_result_us", unit: "us", how: "mean per Codec.OpenResult; " + spanOrRep},
	{name: "wire.open_payload_us", unit: "us", how: "mean per Codec.OpenPayload, on misses and updates; " + replayed},
	{name: "wire.seal_result_us", unit: "us", how: "mean per Codec.SealResult, on misses; " + replayed},
	{name: "wire.seal_query_allocs", unit: "count", how: "Mallocs delta per Codec.SealQuery; replay bracketed by ReadMemStats on every 8th op"},
	{name: "wire.open_result_allocs", unit: "count", how: "Mallocs delta per Codec.OpenResult; replay bracketed by ReadMemStats on every 8th op"},
	{name: "wire.result_bytes", unit: "B", how: "mean SealedResult.Size() per query reply"},
	{name: "encrypt.seal_ns_per_byte", unit: "ns/B", how: "Keyring.Seal timed after the run over the message lengths it observed (every 8th op)"},
	{name: "encrypt.open_ns_per_byte", unit: "ns/B", how: "Keyring.Open timed after the run over the message lengths it observed (every 8th op)"},
	{name: "encrypt.bytes_per_op", unit: "B", how: "plaintext bytes through Keyring.Seal and Open per op: payload sealed by the client and opened at home, result sealed at home and opened by the client"},
	{name: "pipeline.query_self_us", unit: "us", on: inProcess, how: "Pipeline.QuerySync span minus its child spans"},
	{name: "pipeline.update_self_us", unit: "us", on: inProcess, how: "Pipeline.UpdateSync span minus its child spans"},
	{name: "pipeline.coalesced_per_kop", unit: "count", how: "dssp_pipeline_coalesced_misses_total over every registry per 1000 ops; 0 with one client by construction"},
	{name: "cache.lookup_us", unit: "us", on: inProcess, how: "mean per HandleQuery; " + cacheSpan},
	{name: "cache.store_us", unit: "us", on: inProcess, how: "mean per StoreResult; " + cacheSpan},
	{name: "cache.on_update_us", unit: "us", on: inProcess, how: "mean per OnUpdateCompleted, invalidate included; " + cacheSpan},
	{name: "cache.hit_rate", unit: "ratio", higher: true, how: "Cache.Stats() hits ÷ lookups over the measured script, summed over nodes"},
	{name: "cache.entries", unit: "count", how: "Cache.Len() at the end, summed over nodes"},
	{name: "cache.evictions_per_kop", unit: "count", how: "Stats.Evictions delta per 1000 ops"},
	{name: "cache.invalidations_per_update", unit: "count", how: "Invalidations: " + statsPerU},
	{name: "cache.bucket_walks_per_update", unit: "count", how: "BucketWalks: " + statsPerU},
	{name: "cache.buckets_skipped_per_update", unit: "count", higher: true, how: "BucketsSkipped: " + statsPerU},
	{name: "invalidate.decisions_per_update", unit: "count", how: "logged decisions (BucketsVisited): " + statsPerU},
	{name: "homeserver.exec_query_us", unit: "us", on: inProcess, how: "mean per Server.ExecQuery: span around the pipeline.Transport the pipeline is handed"},
	{name: "homeserver.exec_update_us", unit: "us", on: inProcess, how: "mean per Server.ExecUpdate: span around the pipeline.Transport the pipeline is handed"},
	{name: "homeserver.query_self_us", unit: "us", on: inProcess, how: "homeserver.exec_query_us − wire.open_payload_us − engine.query_us − wire.seal_result_us"},
	{name: "engine.query_us", unit: "us", how: "mean of " + oracle},
	{name: "engine.query_p99_us", unit: "us", how: "99th percentile of the same sample"},
	{name: "engine.update_us", unit: "us", on: inProcess, how: "homeserver.exec_update_us − wire.open_payload_us (includes the home server's lock, counters and confirmation dispatch)"},
	{name: "engine.rows_scanned_per_query", unit: "count", how: "Result.RowsScanned per oracle execution on a miss"},
	{name: "engine.query_allocs", unit: "count", how: "Mallocs delta per oracle execution on a miss (every 8th op)"},
	{name: "engine.top3_template_share", unit: "ratio", how: "share of the engine time above in its three costliest templates"},
	{name: "storage.rows_total", unit: "count", how: "rows in the master database at the end: documents data growth"},
	{name: "httpapi.client_router_rtt_us", unit: "us", on: inFleet, how: "client → router; " + rtSpan},
	{name: "httpapi.router_handler_us", unit: "us", on: inFleet, how: "router; " + hSpan},
	{name: "httpapi.router_node_rtt_us", unit: "us", on: inFleet, how: "router → node; " + rtSpan},
	{name: "httpapi.node_handler_us", unit: "us", on: inFleet, how: "node; " + hSpan},
	{name: "httpapi.node_home_rtt_us", unit: "us", on: inFleet, how: "node → home; " + rtSpan},
	{name: "httpapi.home_handler_us", unit: "us", on: inFleet, how: "home; " + hSpan},
	{name: "httpapi.hop_overhead_us", unit: "us", on: inFleet, how: "Σ(rtt − handler) ÷ round trips: net/http, loopback and the response's gob decode"},
	{name: "httpapi.request_bytes", unit: "B", on: inFleet, how: "request body bytes per round trip"},
	{name: "httpapi.response_bytes", unit: "B", on: inFleet, how: "response body bytes per round trip"},
	{name: "httpapi.retries_per_kop", unit: "count", on: inFleet, how: "dssp_http_retries_total + dssp_router_query_retries_total per 1000 ops"},
	{name: "shard.router_self_us", unit: "us", on: inFleet, how: "router handler span minus the round trips under it: gob, pipeline and shard.Router"},
	{name: "shard.fanout_nodes_per_update", unit: "count", on: inFleet, how: "dssp_router_fanout_nodes histogram mean"},
	{name: "shard.fanout_skipped_per_update", unit: "count", higher: true, on: inFleet, how: "dssp_router_fanout_skipped_total ÷ fan-outs"},
	{name: "shard.node_share_max", unit: "ratio", on: inFleet, how: "largest share of lookups served by one node"},
	{name: "core.encrypted_result_templates", unit: "count", higher: true, how: "core.EncryptedResultCount of the exposure assignment"},
	{name: "core.home_execs_vs_view", unit: "ratio", how: "home executions of the script ÷ home executions of the same script in process under uniform view with the same cache size: the paper's \"no scalability penalty\" as an exact count ratio (1 = none)"},
	{name: "client.query_hit_us", unit: "us", how: "mean latency of queries that hit, traced repetition"},
	{name: "client.query_miss_us", unit: "us", how: "mean latency of queries that missed, traced repetition"},
	{name: "client.update_p99_us", unit: "us", how: "99th percentile of update latency, traced repetition"},
	{name: "runtime.gc_cpu_pct", unit: "%", how: "/cpu/classes/gc/total ÷ process CPU over the measured script, fastest timed repetition"},
	{name: "runtime.alloc_kb_per_op", unit: "KB", how: "TotalAlloc delta over the measured script ÷ ops"},
	{name: "runtime.gc_cycles", unit: "count", how: "NumGC delta over the measured script"},
	{name: "setup.analyze_ms", unit: "ms", how: "Methodology.Run; median over the repetitions"},
	{name: "setup.build_s", unit: "s", how: "schema, templates, keyring, boot and script binding; median"},
	{name: "setup.populate_s", unit: "s", how: "Populate; median"},
	{name: "setup.warm_s", unit: "s", how: "the warm-up script; median"},
	{name: "trace.overhead_pct", unit: "%", how: "traced ÷ untraced mean op latency − 1"},
	{name: "trace.unattributed_pct", unit: "%", how: "share of the traced op latency inside no layer's span or replay"},
	{name: "bench.rep_spread_pct", unit: "%", how: "max − min of ops_s over the timed repetitions, % of max: shows a disturbed box"},
	{name: "bench.cores_busy", unit: "cores", how: "ops_s × cpu_us_per_op ÷ 1e6; 1 by construction once the process is pinned to one CPU"},
}

// allocsTolerance is how far allocs_per_op may differ between
// repetitions of identical work.
const allocsTolerance = 0.005

// unattributedLimit is the reconciliation tolerance: how much of the
// traced mean op latency may lie outside every layer's spans before the
// run reports a finding.
const unattributedLimit = 15.0

// report collects one run's output: metric values by name, the facts
// printed beside them, and every failed check.
type report struct {
	values   map[string]float64
	facts    [][2]string
	problems []string
	findings []string
	ops      int
	failed   int
}

func newReport() *report { return &report{values: make(map[string]float64)} }

func (p *report) fact(name string, v any)    { p.facts = append(p.facts, [2]string{name, fmt.Sprint(v)}) }
func (p *report) problem(f string, a ...any) { p.problems = append(p.problems, fmt.Sprintf(f, a...)) }

func best(reps []*rep, higher bool, f func(*rep) float64) float64 {
	v := f(reps[0])
	for _, r := range reps[1:] {
		if x := f(r); (higher && x > v) || (!higher && x < v) {
			v = x
		}
	}
	return v
}

func median(reps []*rep, f func(*rep) float64) float64 {
	vs := make([]float64, len(reps))
	for i, r := range reps {
		vs[i] = f(r)
	}
	slices.Sort(vs)
	if n := len(vs); n%2 == 0 {
		return (vs[n/2-1] + vs[n/2]) / 2
	}
	return vs[len(vs)/2]
}

func allocsPerOp(r *rep) float64 { return float64(r.mallocs) / float64(r.ops) }

// endToEndMetrics folds a run's timed repetitions into the end-to-end
// metrics. The repetitions did identical work, so interference only ever
// adds time: each timing reports its best repetition. Counts must repeat.
func (p *report) endToEndMetrics(w *workloadDef, sc *script, reps []*rep) {
	r0 := reps[0]
	p.ops += r0.ops * len(reps)
	for i, r := range reps {
		p.failed += r.failed
		if r.stale > 0 {
			p.problem("repetition %d: %d of %d audited replies differ from the master database", i, r.stale, r.audited)
		}
		if r.rows != r0.rows || r.homeExecs() != r0.homeExecs() ||
			r.final != r0.final || r.entries != r0.entries || r.rowsTotal != r0.rowsTotal {
			p.problem("repetition %d: counts differ from repetition 0 (hits %d/%d rows %d/%d home execs %d/%d)",
				i, r.hits(), r0.hits(), r.rows, r0.rows, r.homeExecs(), r0.homeExecs())
		}
		if a, a0 := allocsPerOp(r), allocsPerOp(r0); math.Abs(a-a0) > allocsTolerance*a0 {
			p.problem("repetition %d: allocs_per_op %.2f vs %.2f differ by more than %.1f%%", i, a, a0, 100*allocsTolerance)
		}
	}
	v := p.values
	v["ops_s"] = best(reps, true, (*rep).opsPerSec)
	v["query_p50_us"] = best(reps, false, func(r *rep) float64 { return quantileUs(r.queryLat, 0.50) })
	v["query_p99_us"] = best(reps, false, func(r *rep) float64 { return quantileUs(r.queryLat, 0.99) })
	v["update_p50_us"] = best(reps, false, func(r *rep) float64 { return quantileUs(r.updateLat, 0.50) })
	v["cpu_us_per_op"] = best(reps, false, (*rep).cpuUsPerOp)
	v["allocs_per_op"] = best(reps, false, allocsPerOp)
	v["home_execs_per_kop"] = 1000 * float64(r0.homeExecs()) / float64(r0.ops)
	v["peak_rss_mb"] = median(reps, func(r *rep) float64 { return r.peakRSSMB })
	v["setup_s"] = median(reps, func(r *rep) float64 { return r.setupTotal.Seconds() })

	// Reported beside the gated metrics, never gated themselves.
	v["setup.analyze_ms"] = 1e3 * median(reps, func(r *rep) float64 { return r.setup.analyze.Seconds() })
	v["setup.build_s"] = median(reps, func(r *rep) float64 { return r.setup.build.Seconds() })
	v["setup.populate_s"] = median(reps, func(r *rep) float64 { return r.setup.populate.Seconds() })
	v["setup.warm_s"] = median(reps, func(r *rep) float64 { return r.warm.Seconds() })
	lo, hi := best(reps, false, (*rep).opsPerSec), v["ops_s"]
	v["bench.rep_spread_pct"] = 100 * (hi - lo) / hi
	v["bench.cores_busy"] = v["ops_s"] * v["cpu_us_per_op"] / 1e6
	bestRep := reps[0]
	for _, r := range reps {
		if r.opsPerSec() > bestRep.opsPerSec() {
			bestRep = r
		}
	}
	v["runtime.gc_cpu_pct"] = 100 * bestRep.gcCPU.Seconds() / bestRep.cpu.Seconds()
	v["runtime.alloc_kb_per_op"] = float64(r0.allocBytes) / 1024 / float64(r0.ops)
	v["runtime.gc_cycles"] = float64(r0.gcCycles)

	p.fact("script_digest", sc.Digest)
	p.fact("repetitions", len(reps))
	var perRep []string
	for _, r := range reps {
		perRep = append(perRep, fmt.Sprintf("cpu%d:%.0f", r.pinned, r.opsPerSec()))
	}
	p.fact("rep_ops_s", strings.Join(perRep, ","))
	p.fact("warm_ops", len(sc.Warm))
	p.fact("measured_ops", r0.ops)
	p.fact("query_samples", r0.queries)
	p.fact("update_samples", r0.updates)
	p.fact("update_share", fmt.Sprintf("%.4f", float64(r0.updates)/float64(r0.ops)))
	p.fact("hit_rate", fmt.Sprintf("%.4f", r0.hitRate()))
	p.fact("rows_returned", r0.rows)
	p.fact("audited_replies", r0.audited)
	p.checkShape(w, r0)
}

// checkShape fails a run whose workload no longer has the property it
// exists for.
func (p *report) checkShape(w *workloadDef, r *rep) {
	share, hit := float64(r.updates)/float64(r.ops), r.hitRate()
	switch {
	case w.thin && share <= 0.30:
		p.problem("%s: update share %.3f is not above 0.30", w.name, share)
	case w.capacity > 0 && hit >= 0.5:
		p.problem("%s: hit rate %.3f is not below 0.5", w.name, hit)
	case !w.thin && !w.fleet && w.capacity == 0 && hit <= 0.75:
		p.problem("%s: hit rate %.3f is not above 0.75", w.name, hit)
	}
}

// perLayerMetrics folds the traced repetition into the per-layer
// metrics. base is the untraced repetition it is compared with, checked
// the repetition the ledger ran on (the traced one, or one of its own),
// viewExecs what the same script costs the home tier under uniform view
// exposure on the in-process substrate.
func (p *report) perLayerMetrics(w *workloadDef, base, r, checked *rep, tr *tracer, led *ledger, viewExecs int) {
	traced := []*rep{r}
	if checked != r {
		traced = append(traced, checked)
	}
	for _, x := range traced {
		p.ops += x.ops
		p.failed += x.failed
		if x.hits() != base.hits() || x.rows != base.rows || x.homeExecs() != base.homeExecs() {
			p.problem("traced repetition: counts differ from the untraced repetitions (hits %d/%d rows %d/%d home execs %d/%d)",
				x.hits(), base.hits(), x.rows, base.rows, x.homeExecs(), base.homeExecs())
		}
	}
	v := p.values
	ag := func(k spanKind) spanAgg { return tr.agg[k] }
	span := func(k spanKind) float64 { return ag(k).meanUs() }
	// A wire call is a span where the bench re-states the client and a
	// ledger replay where it cannot.
	spanOr := func(k spanKind, c *call) float64 {
		if ag(k).calls > 0 {
			return span(k)
		}
		return c.meanUs()
	}
	kops := float64(r.ops) / 1000
	c := r.counts
	updates := math.Max(float64(c.cache.UpdatesSeen), 1)

	v["wire.seal_query_us"] = spanOr(spSealQuery, &led.sealQuery)
	v["wire.seal_update_us"] = spanOr(spSealUpdate, &led.sealUpdate)
	v["wire.open_result_us"] = spanOr(spOpenResult, &led.openResult)
	v["wire.open_payload_us"] = led.openPayload.meanUs()
	v["wire.seal_result_us"] = led.sealResult.meanUs()
	v["wire.seal_query_allocs"] = led.sealQuery.allocsPerCall()
	v["wire.open_result_allocs"] = led.openResult.allocsPerCall()
	v["wire.result_bytes"] = float64(led.resultBytes) / math.Max(float64(led.results), 1)
	v["encrypt.seal_ns_per_byte"], v["encrypt.open_ns_per_byte"] = led.encryptNsPerByte()
	v["encrypt.bytes_per_op"] = float64(led.encBytes) / float64(r.ops)

	v["pipeline.query_self_us"] = ag(spPipeQuery).selfUs()
	v["pipeline.update_self_us"] = ag(spPipeUpdate).selfUs()
	v["pipeline.coalesced_per_kop"] = float64(c.coalesced) / kops

	v["cache.lookup_us"] = span(spCacheLookup)
	v["cache.store_us"] = span(spCacheStore)
	v["cache.on_update_us"] = span(spCacheOnUpdate)
	v["cache.hit_rate"] = r.hitRate()
	v["cache.entries"] = float64(r.entries)
	v["cache.evictions_per_kop"] = float64(c.cache.Evictions) / kops
	v["cache.invalidations_per_update"] = float64(c.cache.Invalidations) / updates
	v["cache.bucket_walks_per_update"] = float64(c.cache.BucketWalks) / updates
	v["cache.buckets_skipped_per_update"] = float64(c.cache.BucketsSkipped) / updates
	v["invalidate.decisions_per_update"] = float64(c.cache.BucketsVisited) / updates

	v["homeserver.exec_query_us"] = span(spHomeExecQuery)
	v["homeserver.exec_update_us"] = span(spHomeExecUpdate)
	v["engine.query_us"] = led.engine.meanUs()
	slices.Sort(led.engineLat)
	v["engine.query_p99_us"] = quantileUs(led.engineLat, 0.99)
	v["engine.rows_scanned_per_query"] = float64(led.rowsScanned) / math.Max(float64(led.engine.n), 1)
	v["engine.query_allocs"] = led.engine.allocsPerCall()
	v["engine.top3_template_share"] = led.top3Share()
	v["storage.rows_total"] = float64(r.rowsTotal)
	if ag(spHomeExecQuery).calls > 0 {
		// The home server's own share of a forwarded query: the bracketed
		// call minus the payload open, engine run and result seal the
		// ledger replayed on the same inputs. An update's engine time is
		// what the bracket leaves once the payload open is taken out.
		v["homeserver.query_self_us"] = span(spHomeExecQuery) - v["wire.open_payload_us"] - v["engine.query_us"] - v["wire.seal_result_us"]
		v["engine.update_us"] = span(spHomeExecUpdate) - v["wire.open_payload_us"]
	}

	hops := [][2]spanKind{{spClientRouterRTT, spRouterHandler}, {spRouterNodeRTT, spNodeHandler}, {spNodeHomeRTT, spHomeHandler}}
	var overhead time.Duration
	for _, h := range hops {
		overhead += ag(h[0]).total - ag(h[1]).total
	}
	var rtts, reqBytes, resBytes int64
	for _, h := range r.hops {
		rtts, reqBytes, resBytes = rtts+h.calls, reqBytes+h.reqBytes, resBytes+h.resBytes
	}
	v["httpapi.client_router_rtt_us"] = span(spClientRouterRTT)
	v["httpapi.router_handler_us"] = span(spRouterHandler)
	v["httpapi.router_node_rtt_us"] = span(spRouterNodeRTT)
	v["httpapi.node_handler_us"] = span(spNodeHandler)
	v["httpapi.node_home_rtt_us"] = span(spNodeHomeRTT)
	v["httpapi.home_handler_us"] = span(spHomeHandler)
	v["httpapi.hop_overhead_us"] = perCall(overhead, rtts)
	v["httpapi.request_bytes"] = float64(reqBytes) / math.Max(float64(rtts), 1)
	v["httpapi.response_bytes"] = float64(resBytes) / math.Max(float64(rtts), 1)
	v["httpapi.retries_per_kop"] = float64(c.retries) / kops
	v["shard.router_self_us"] = ag(spRouterHandler).selfUs()
	fans := math.Max(float64(c.fanCount), 1)
	v["shard.fanout_nodes_per_update"] = float64(c.fanNodes.Microseconds()) / fans
	v["shard.fanout_skipped_per_update"] = float64(c.fanSkip) / fans
	if w.fleet {
		v["shard.node_share_max"] = float64(slices.Max(c.nodeLoad)) / float64(r.queries)
	}

	v["core.encrypted_result_templates"] = float64(r.encrypted)
	v["core.home_execs_vs_view"] = float64(r.homeExecs()) / float64(viewExecs)
	v["client.query_hit_us"] = perCall(r.hitWall, int64(r.hits()))
	v["client.query_miss_us"] = perCall(r.missWall, int64(r.queries-r.hits()))
	v["client.update_p99_us"] = quantileUs(r.updateLat, 0.99)

	meanTraced := r.wall.Seconds() / float64(r.ops)
	meanBase := base.wall.Seconds() / float64(base.ops)
	v["trace.overhead_pct"] = 100 * (meanTraced/meanBase - 1)
	// What no layer's span or ledger replay accounts for: the roots' self
	// time, less the wire calls replayed for a client the bench could not
	// re-state.
	unattributed := ag(spQuery).self + ag(spUpdate).self
	if ag(spSealQuery).calls == 0 {
		unattributed -= led.sealQuery.total + led.sealUpdate.total + led.openResult.total
	}
	v["trace.unattributed_pct"] = 100 * unattributed.Seconds() / r.wall.Seconds()
	if v["trace.unattributed_pct"] > unattributedLimit {
		gap, dur := tr.widestGap()
		p.findings = append(p.findings, fmt.Sprintf(
			"FINDING: %.1f%% of the traced op latency is inside no layer's span; the widest uncovered interval is %q (%.1f us/op)",
			v["trace.unattributed_pct"], gap, float64(dur.Microseconds())/float64(r.ops)))
	}

	if checked.stale > 0 {
		p.problem("traced repetition: %d stale reads in %d replies", checked.stale, checked.queries)
	}
	p.fact("stale_reads", checked.stale)
	p.fact("checked_replies", checked.queries)
	p.fact("result_digest", checked.digest)
}

// resetPeakRSS restarts the kernel's resident-set high-water mark at the
// current resident set, so each repetition reads its own peak. Where the
// kernel refuses, every repetition reads the process's peak so far.
func resetPeakRSS() { _ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}
