package experiments

import (
	"testing"

	"dssp/internal/apps"
	"dssp/internal/workload"
)

// TestBatchParity is the acceptance check for batched invalidation: on a
// seeded benchmark replay, every batch size must reproduce the decision
// log and final cache image of batches of one byte for byte, with
// strictly fewer physical bucket walks. (That a batch of one costs what
// the update-by-update oracle costs is internal/cache's to check.)
func TestBatchParity(t *testing.T) {
	for _, b := range []workload.Benchmark{apps.NewAuction(), apps.NewBBoard(), apps.NewBookstore()} {
		r, err := BatchInvalidation(b, 150, 7, []int{4, 32})
		if err != nil {
			t.Fatalf("%s: %v", b.Name(), err)
		}
		if !r.Passed() {
			t.Errorf("%s: batched invalidation diverged:\n%s", b.Name(), r.Format())
		}
		if r.Updates == 0 || r.Entries == 0 {
			t.Fatalf("%s: degenerate replay (%d updates, %d entries)", b.Name(), r.Updates, r.Entries)
		}
	}
}

// walkRatio reports size-1 walks over the given batch size's walks — the
// amortization factor the monitoring interval buys.
func walkRatio(r *BatchResult, size int) float64 {
	for _, run := range r.Runs {
		if run.Size == size && run.BucketWalks > 0 {
			return float64(r.Runs[0].BucketWalks) / float64(run.BucketWalks)
		}
	}
	return 0
}

// TestBatchAmortizationFloor pins the headline number: batch size 8 on the
// auction workload amortizes at least 2x of the size-1 bucket walks.
func TestBatchAmortizationFloor(t *testing.T) {
	r, err := BatchInvalidation(apps.NewAuction(), 400, 1, []int{8})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Passed() {
		t.Fatalf("diverged:\n%s", r.Format())
	}
	if ratio := walkRatio(r, 8); ratio < 2 {
		t.Errorf("walk ratio at batch 8 = %.2fx, want >= 2x\n%s", ratio, r.Format())
	}
}
