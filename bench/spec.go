package main

import (
	"encoding/json"
	"fmt"
	"io"
)

func better(m metricDef) string {
	if m.higher {
		return "higher"
	}
	return "lower"
}

// printSpec writes BENCHMARK.json, the contract a driver runs the bench
// against, from the workload and metric tables.
func printSpec(w io.Writer) error {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type gated struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	spec := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []gated  `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, d := range workloads {
		spec.Workloads = append(spec.Workloads, wl{d.name, d.why})
	}
	for _, m := range endToEnd {
		spec.EndToEnd = append(spec.EndToEnd, gated{m.name, m.unit, better(m), m.bound})
	}
	for _, m := range perLayer {
		spec.PerLayer = append(spec.PerLayer, layer{m.name, m.unit, better(m)})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	return enc.Encode(spec)
}

// printGlossary writes the README's two metric tables.
func printGlossary(w io.Writer) {
	fmt.Fprintln(w, "| name | unit | better | bound | how measured |\n|---|---|---|---|---|")
	for _, m := range endToEnd {
		fmt.Fprintf(w, "| `%s` | %s | %s | %.2f | %s |\n", m.name, m.unit, better(m), m.bound, m.how)
	}
	fmt.Fprintln(w, "\n| name | unit | better | workloads | how measured |\n|---|---|---|---|---|")
	for _, m := range perLayer {
		fmt.Fprintf(w, "| `%s` | %s | %s | %s | %s |\n", m.name, m.unit, better(m), m.on, m.how)
	}
}
