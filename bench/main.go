// Command bench is the repository's benchmark: four bookstore workloads
// driven by one closed-loop client, reporting end-to-end metrics from
// byte-identical timed repetitions and per-layer metrics from one traced
// repetition. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to run (default: all four, one child process each)")
		seed     = flag.Int64("seed", 1, "seed the op script, the data and the keys are generated from")
		_        = flag.Int("seconds", runSeconds, "accepted because a driver passes it, and ignored: a run executes a fixed op count, sized to measure about this long")
		trace    = flag.Int("trace", 1, "1: timed repetitions, then the traced repetition and the per-layer metrics; 0: timed repetitions only")
		spans    = flag.String("spans", "", "write the traced repetition's sampled spans to this file (JSON lines)")
		aa       = flag.Bool("aa", false, "run every workload twice with the same seed and compare the two sets against the bounds")
		show     = flag.String("print", "", "print BENCHMARK.json (\"spec\") or the README's metric tables (\"glossary\") from the bench's own tables, and exit")
	)
	flag.Parse()
	if flag.NArg() > 0 || *trace < 0 || *trace > 1 {
		flag.Usage()
		os.Exit(2)
	}
	var err error
	switch {
	case *show == "spec":
		err = printSpec(os.Stdout)
	case *show == "glossary":
		printGlossary(os.Stdout)
	case *show != "":
		flag.Usage()
		os.Exit(2)
	case *aa:
		err = runAA(*seed)
	case *workload == "":
		err = runAll(*seed, *trace)
	default:
		w := workloadByName(*workload)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
			os.Exit(2)
		}
		err = runWorkload(w, *seed, *trace == 1, *spans)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// outcome is the last line a run prints: the driver's contract.
type outcome struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runWorkload runs one workload in this process and prints its metrics.
func runWorkload(w *workloadDef, seed int64, traced bool, spansPath string) error {
	sc, err := w.script(seed)
	if err != nil {
		return err
	}
	p := newReport()
	p.fact("workload", w.name)
	p.fact("seed", seed)
	reps := make([]*rep, w.reps)
	for i := range reps {
		// Repetitions take turns on the CPUs; whatever follows them stays
		// on the last one.
		cpu, err := pin(i)
		if err != nil && i == 0 {
			fmt.Fprintln(os.Stderr, "bench: not pinned to one CPU, expect noisier timings:", err)
		}
		if reps[i], err = runRep(w, seed, sc, nil, nil); err != nil {
			return fmt.Errorf("%s repetition %d: %w", w.name, i, err)
		}
		reps[i].pinned = cpu
	}
	p.endToEndMetrics(w, sc, reps)

	if traced {
		// In the fleet the gap the ledger leaves between ops lets the
		// scheduler park the server goroutines, and waking them slows
		// every op by a third: spans and ledger take separate passes
		// there. In process the gap costs nothing and one pass does both.
		tr, led := newTracer(), newLedger()
		spanLed := led
		if w.fleet {
			spanLed = nil
		}
		r, err := runRep(w, seed, sc, tr, spanLed)
		if err != nil {
			return fmt.Errorf("%s traced repetition: %w", w.name, err)
		}
		checked := r
		if w.fleet {
			if checked, err = runRep(w, seed, sc, nil, led); err != nil {
				return fmt.Errorf("%s ledger repetition: %w", w.name, err)
			}
		}
		viewExecs, viewDigest := reps[0].homeExecs(), checked.digest
		if w.fleet || !w.view {
			if viewExecs, viewDigest, err = reference(w, seed, sc, true); err != nil {
				return fmt.Errorf("%s view reference: %w", w.name, err)
			}
		}
		if viewDigest != checked.digest {
			p.problem("result_digest %s differs from %s, the same script's under view exposure in process", checked.digest, viewDigest)
		}
		if w.fleet {
			// The same script through embed_browse's assembly.
			_, d, err := reference(w, seed, sc, false)
			if err != nil {
				return fmt.Errorf("%s embed reference: %w", w.name, err)
			}
			if d != checked.digest {
				p.problem("result_digest %s differs from %s, the same script's through the in-process assembly", checked.digest, d)
			}
		}
		p.perLayerMetrics(w, reps[0], r, checked, tr, led, viewExecs)
		if spansPath != "" {
			if err := tr.writeSpans(spansPath); err != nil {
				return err
			}
		}
	}

	out := outcome{Correct: len(p.problems) == 0 && p.failed == 0, Attempted: p.ops, Failed: p.failed, Metrics: map[string]metricValue{}}
	for _, f := range p.facts {
		fmt.Printf("%-34s %s\n", f[0], f[1])
	}
	fmt.Printf("%-34s %d\n%-34s %d\n", "attempted_ops", p.ops, "failed_ops", p.failed)
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if v, ok := p.values[d.name]; ok && w.measures(d) {
				fmt.Printf("%-34s %-14.6g %s\n", d.name, v, d.unit)
			}
		}
	}
	// The result line holds one of the two sets, as the driver's contract
	// has it; a per-layer metric not taken on this substrate reads 0.
	set := endToEnd
	if traced {
		set = perLayer
	}
	for _, d := range set {
		out.Metrics[d.name] = metricValue{p.values[d.name], d.unit}
	}
	for _, f := range p.findings {
		fmt.Println(f)
	}
	for _, f := range p.problems {
		fmt.Println("FAILED:", f)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !out.Correct {
		return fmt.Errorf("%s: %d failed ops, %d failed checks", w.name, p.failed, len(p.problems))
	}
	return nil
}

// reference runs the workload's script once more on the in-process
// substrate with the workload's cache size — under uniform view
// exposure, or under the methodology's — every reply checked by a ledger
// of its own. It returns what the script cost the home tier there (under
// view, the denominator of core.home_execs_vs_view: the paper's "no
// scalability penalty" as a count ratio) and the digest of its replies,
// which must equal the traced repetition's: the same script through
// another exposure assignment or another substrate returns the same
// plaintext.
func reference(w *workloadDef, seed int64, sc *script, view bool) (int, string, error) {
	r, err := runRep(&workloadDef{name: w.name, view: view, capacity: w.capacity}, seed, sc, nil, newLedger())
	if err != nil {
		return 0, "", err
	}
	if r.failed > 0 || r.stale > 0 {
		return 0, "", fmt.Errorf("%d failed ops, %d stale reads", r.failed, r.stale)
	}
	return r.homeExecs(), r.digest, nil
}
