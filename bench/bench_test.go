package main

import (
	"bytes"
	"math"
	"os"
	"runtime"
	"testing"
	"time"

	"dssp/internal/storage"
)

// tiny returns a workload shrunk to run in well under a second.
func tiny(name string) *workloadDef {
	w := *workloadByName(name)
	w.warm, w.measured, w.reps = 300, 600, 2
	if w.capacity > 0 {
		w.capacity = 50
	}
	return &w
}

func tinyScript(t *testing.T, w *workloadDef, seed int64) *script {
	t.Helper()
	sc, err := genScript(seed, w.warm, w.measured, w.thin)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func TestScriptIsAFunctionOfTheSeed(t *testing.T) {
	w := tiny("embed_browse")
	a, b, c := tinyScript(t, w, 7), tinyScript(t, w, 7), tinyScript(t, w, 8)
	if a.Digest != b.Digest {
		t.Errorf("same seed, digests %s and %s", a.Digest, b.Digest)
	}
	if a.Digest == c.Digest {
		t.Errorf("seeds 7 and 8 share digest %s", a.Digest)
	}
	if len(a.Warm) != w.warm || len(a.Measured) != w.measured {
		t.Errorf("script has %d+%d ops, want %d+%d", len(a.Warm), len(a.Measured), w.warm, w.measured)
	}
}

// TestThinningKeepsEveryUpdate: dropping read-only pages must leave the
// update stream untouched, or kept updates would meet a database the
// generator never saw.
func TestThinningKeepsEveryUpdate(t *testing.T) {
	updates := func(ops []scriptOp) (us []string) {
		for _, op := range ops {
			if !op.Query {
				us = append(us, op.ID+" "+storage.Key(op.Params))
			}
		}
		return us
	}
	full, err := genScript(3, 0, 120000, false)
	if err != nil {
		t.Fatal(err)
	}
	thin, err := genScript(3, 0, 12000, true)
	if err != nil {
		t.Fatal(err)
	}
	fu, tu := updates(full.Measured), updates(thin.Measured)
	if len(tu) == 0 || len(tu) > len(fu) {
		t.Fatalf("thinned script has %d updates, full script %d", len(tu), len(fu))
	}
	for i := range tu {
		if tu[i] != fu[i] {
			t.Fatalf("update %d of the thinned script is %q, of the full script %q", i, tu[i], fu[i])
		}
	}
	if share := updateShare(thin.Measured); share <= 0.30 {
		t.Errorf("thinned update share %.3f, want above 0.30", share)
	}
}

// TestWorkloadsRepeat runs all four workloads at tiny sizes, timed and
// traced: no op fails, no reply is stale, counts repeat between
// repetitions, every per-layer metric is emitted, and the fleet returns
// what the in-process assembly returns for the same script.
func TestWorkloadsRepeat(t *testing.T) {
	digests := make(map[string]string)
	for _, def := range workloads {
		w := tiny(def.name)
		sc := tinyScript(t, w, 5)
		a, err := runRep(w, 5, sc, nil, nil)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		b, err := runRep(w, 5, sc, nil, nil)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		tr, led := newTracer(), newLedger()
		c, err := runRep(w, 5, sc, tr, led)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		for i, r := range []*rep{a, b, c} {
			if r.failed != 0 || r.stale != 0 || r.audited == 0 {
				t.Errorf("%s rep %d: %d failed ops, %d stale of %d checked replies", w.name, i, r.failed, r.stale, r.audited)
			}
			if r.hitRate() != a.hitRate() || r.homeExecs() != a.homeExecs() || r.rows != a.rows {
				t.Errorf("%s rep %d: hit rate %v home execs %d rows %d, rep 0 had %v %d %d",
					w.name, i, r.hitRate(), r.homeExecs(), r.rows, a.hitRate(), a.homeExecs(), a.rows)
			}
		}
		digests[w.name] = c.digest

		p := newReport()
		p.endToEndMetrics(w, sc, []*rep{a, b})
		p.perLayerMetrics(w, a, c, c, tr, led, a.homeExecs())
		for _, defs := range [][]metricDef{endToEnd, perLayer} {
			for _, m := range defs {
				v := p.values[m.name] // absent: not taken on this substrate, reads 0
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s: metric %s = %v", w.name, m.name, v)
				}
				if w.measures(m) && v == 0 && m.unit == "us" {
					t.Errorf("%s: timing %s applies here and reads 0", w.name, m.name)
				}
			}
		}
	}
	// tiny() gives both the same script: same generator, seed and lengths.
	if digests["fleet_browse"] != digests["embed_browse"] {
		t.Errorf("result digest through the fleet %s, in process %s", digests["fleet_browse"], digests["embed_browse"])
	}
}

// TestFleetShutsDown: after a fleet repetition no listener, server or
// connection goroutine is left behind.
func TestFleetShutsDown(t *testing.T) {
	w := tiny("fleet_browse")
	sc := tinyScript(t, w, 2)
	before := runtime.NumGoroutine()
	if _, err := runRep(w, 2, sc, nil, nil); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond) // connection goroutines unwind after Shutdown returns
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines before the fleet ran, %d after:\n%s", before, n, buf[:runtime.Stack(buf, true)])
	}
}

// TestGeneratedDocsAreCurrent: BENCHMARK.json, which the driver reads, and
// the README's metric tables are printed from the bench's own tables
// (-print spec, -print glossary).
func TestGeneratedDocsAreCurrent(t *testing.T) {
	var spec, glossary bytes.Buffer
	if err := printSpec(&spec); err != nil {
		t.Fatal(err)
	}
	printGlossary(&glossary)
	if got, err := os.ReadFile("../BENCHMARK.json"); err != nil || !bytes.Equal(got, spec.Bytes()) {
		t.Errorf("BENCHMARK.json is not what -print spec prints (%v)", err)
	}
	if got, err := os.ReadFile("README.md"); err != nil || !bytes.Contains(got, glossary.Bytes()) {
		t.Errorf("README.md does not hold what -print glossary prints (%v)", err)
	}
}
