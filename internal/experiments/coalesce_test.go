package experiments

import (
	"sync"
	"testing"
	"time"
)

// TestCoalesceHotKeyMissStorm is the acceptance check for single-flight
// coalescing: with it on, the home server executes the hot query once per
// invalidation epoch; with it off, once per client per epoch.
func TestCoalesceHotKeyMissStorm(t *testing.T) {
	const clients, epochs = 16, 3
	r, err := Coalesce(clients, epochs)
	if err != nil {
		t.Fatal(err)
	}
	byMode := map[string]CoalescePoint{}
	for _, p := range r.Points {
		byMode[p.Mode] = p
	}
	// O(1) per epoch: the epoch's first miss opens the only flight; every
	// later query either joins it or hits the cache once it stores.
	if got := byMode["coalesced"].HomeExecs; got != epochs {
		t.Errorf("coalesced home executions = %d, want %d (one per epoch)", got, epochs)
	}
	if byMode["coalesced"].Coalesced == 0 {
		t.Error("coalesced mode recorded no coalesced misses")
	}
	// O(clients): without coalescing every client that misses before the
	// first store executes at the home server. Clients that lose the race
	// and hit the fresh cache entry make the exact count timing-dependent,
	// but the storm is at least one full client population.
	if got := byMode["uncoalesced"].HomeExecs; got < clients {
		t.Errorf("uncoalesced home executions = %d, want >= %d", got, clients)
	}
	if byMode["uncoalesced"].HomeExecs <= byMode["coalesced"].HomeExecs {
		t.Errorf("uncoalesced (%d) should exceed coalesced (%d) home executions",
			byMode["uncoalesced"].HomeExecs, byMode["coalesced"].HomeExecs)
	}
}

// missStorm drives one hot-key storm epoch against a fresh deployment.
func missStorm(b *testing.B, disable bool) {
	b.Helper()
	const clients = 32
	for i := 0; i < b.N; i++ {
		c, err := stormClient(disable, time.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
		q1 := c.Node.App.Query("Q1")
		var wg sync.WaitGroup
		start := make(chan struct{})
		for n := 0; n < clients; n++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if _, err := c.Query(q1, "bear"); err != nil {
					b.Error(err)
				}
			}()
		}
		close(start)
		wg.Wait()
	}
}

func BenchmarkMissStormCoalesced(b *testing.B)   { missStorm(b, false) }
func BenchmarkMissStormUncoalesced(b *testing.B) { missStorm(b, true) }
