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
	for _, exp := range []string{"figure4", "batch", "scaleout", "leakage", "trace", "ablation", "capacity"} {
		err := run(exp, "nosuch", "U1/Q2", "", experiments.DefaultRunOptions())
		if err == nil || err.Error() != want {
			t.Errorf("-exp %s -app nosuch: err = %v, want %s", exp, err, want)
		}
	}
	if err := run("leakage", "toystore,nosuch", "", "", experiments.DefaultRunOptions()); err == nil || err.Error() != want {
		t.Errorf("-exp leakage -app toystore,nosuch: err = %v, want %s", err, want)
	}
	// Only -exp leakage reads a list: elsewhere it is one unknown name.
	const list = `unknown application "toystore,bboard"`
	if err := run("scaleout", "toystore,bboard", "", "", experiments.DefaultRunOptions()); err == nil || err.Error() != list {
		t.Errorf("-exp scaleout -app toystore,bboard: err = %v, want %s", err, list)
	}
}
