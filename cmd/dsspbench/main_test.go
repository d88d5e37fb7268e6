package main

import (
	"testing"

	"dssp/internal/experiments"
)

// TestUnknownAppIsOneError drives every experiment that takes -app with
// a name no table knows: each must fail, before doing any work, with the
// one message apps.ByName produces — not panic, and not consult a list
// of its own.
func TestUnknownAppIsOneError(t *testing.T) {
	const want = `unknown application "nosuch"`
	for _, exp := range []string{"figure4", "batch", "scaleout", "leakage", "trace", "ablation", "capacity", "nodes"} {
		err := run(exp, "nosuch", "U1/Q2", "", "", experiments.DefaultRunOptions())
		if err == nil || err.Error() != want {
			t.Errorf("-exp %s -app nosuch: err = %v, want %s", exp, err, want)
		}
	}
	if err := run("leakage", "bboard", "", "", "toystore,nosuch", experiments.DefaultRunOptions()); err == nil || err.Error() != want {
		t.Errorf("-exp leakage -apps toystore,nosuch: err = %v, want %s", err, want)
	}
}
