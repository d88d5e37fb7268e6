package shard

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"dssp/internal/pipeline"
	"dssp/internal/wire"
)

// countingCache is a pipeline.Cache whose every update invalidates n
// entries.
type countingCache struct{ n int }

func (countingCache) HandleQuery(wire.SealedQuery) (wire.SealedResult, bool) {
	return wire.SealedResult{}, false
}
func (countingCache) StoreResult(wire.SealedQuery, wire.SealedResult, bool) {}
func (c countingCache) OnUpdateCompleted(wire.SealedUpdate) int             { return c.n }
func (c countingCache) OnUpdatesCompleted(us []wire.SealedUpdate) []int {
	counts := make([]int, len(us))
	for i := range counts {
		counts[i] = c.n
	}
	return counts
}

// PipeBackend.Invalidate returns the node's count — at once inline, at the
// flush under a monitoring interval — and a caller whose context ends
// first gets the context's error while the flush still applies the update.
func TestPipeBackendInvalidateWaitsForTheCount(t *testing.T) {
	inline := PipeBackend{Pipe: pipeline.New(countingCache{n: 3}, nil, nil, pipeline.Options{})}
	if n, err := inline.Invalidate(context.Background(), wire.SealedUpdate{TemplateID: "U1"}, 1); err != nil || n != 3 {
		t.Fatalf("inline Invalidate = %d, %v; want 3", n, err)
	}

	// The interval never fires on its own: the test keeps the flush the
	// batcher arms and calls it by hand.
	var (
		mu    sync.Mutex
		flush func()
	)
	keep := func(_ time.Duration, fn func()) {
		mu.Lock()
		flush = fn
		mu.Unlock()
	}
	batched := PipeBackend{Pipe: pipeline.New(countingCache{n: 2}, nil, nil, pipeline.Options{MonitorInterval: time.Hour, After: keep})}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := batched.Invalidate(ctx, wire.SealedUpdate{TemplateID: "U1"}, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("Invalidate under a cancelled context = %v, want context.Canceled", err)
	}
	got := make(chan int, 1)
	go func() {
		n, err := batched.Invalidate(context.Background(), wire.SealedUpdate{TemplateID: "U1"}, 2)
		if err != nil {
			t.Error(err)
		}
		got <- n
	}()
	// Flush until the second update has joined a batch and been answered.
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		fn := flush
		mu.Unlock()
		if fn != nil {
			fn()
		}
		select {
		case n := <-got:
			if n != 2 {
				t.Fatalf("Invalidate = %d at the flush, want 2", n)
			}
			return
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("Invalidate did not return after a flush")
		}
	}
}
