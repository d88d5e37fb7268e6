package homeserver

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dssp/internal/apps"
	"dssp/internal/encrypt"
	"dssp/internal/obs"
	"dssp/internal/sqlparse"
	"dssp/internal/storage"
	"dssp/internal/wire"
)

func TestAdmissionUnlimitedNeverBlocks(t *testing.T) {
	var a admission
	for i := 0; i < 100; i++ {
		a.acquire(nil)
	}
	for i := 0; i < 100; i++ {
		a.release(nil)
	}
	if a.active != 0 || len(a.queue) != 0 {
		t.Fatalf("active=%d queue=%d after balanced acquire/release", a.active, len(a.queue))
	}
}

func TestAdmissionFIFOOrder(t *testing.T) {
	var a admission
	a.setLimit(1)
	a.acquire(nil) // occupy the only slot

	const waiters = 5
	var mu sync.Mutex
	var order []int
	var started, done sync.WaitGroup
	for i := 0; i < waiters; i++ {
		i := i
		started.Add(1)
		done.Add(1)
		go func() {
			started.Done()
			// Serialize arrival so FIFO order is the spawn order.
			for {
				a.mu.Lock()
				mine := len(a.queue) == i
				a.mu.Unlock()
				if mine {
					break
				}
				time.Sleep(50 * time.Microsecond)
			}
			a.acquire(nil)
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			a.release(nil)
			done.Done()
		}()
	}
	started.Wait()
	// Wait until all waiters are queued, then release the slot.
	for {
		a.mu.Lock()
		n := len(a.queue)
		a.mu.Unlock()
		if n == waiters {
			break
		}
		time.Sleep(50 * time.Microsecond)
	}
	a.release(nil)
	done.Wait()
	for i, got := range order {
		if got != i {
			t.Fatalf("admission order = %v, want FIFO", order)
		}
	}
}

func TestAdmissionBoundsConcurrency(t *testing.T) {
	var a admission
	a.setLimit(3)
	depth := obs.NewRegistry().Gauge(obs.MHomeQueueDepth)

	var cur, peak atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a.acquire(depth)
			c := cur.Add(1)
			for {
				p := peak.Load()
				if c <= p || peak.CompareAndSwap(p, c) {
					break
				}
			}
			time.Sleep(100 * time.Microsecond)
			cur.Add(-1)
			a.release(depth)
		}()
	}
	wg.Wait()
	if p := peak.Load(); p > 3 {
		t.Fatalf("peak concurrency = %d, want <= 3", p)
	}
	if d := depth.Value(); d != 0 {
		t.Fatalf("queue depth after drain = %d, want 0", d)
	}
}

// admissionServer builds a home server over a seeded toystore database.
func admissionServer(tb testing.TB, limit int) *Server {
	tb.Helper()
	app := apps.Toystore()
	codec := wire.NewCodec(app, encrypt.MustNewKeyring(make([]byte, encrypt.KeySize)), nil)
	db := storage.NewDatabase(app.Schema)
	for i := int64(1); i <= 8; i++ {
		if err := db.Insert("toys", storage.Row{
			sqlparse.IntVal(i), sqlparse.StringVal("bear"), sqlparse.IntVal(i * 2),
		}); err != nil {
			tb.Fatal(err)
		}
	}
	s := New(db, app, codec)
	s.SetAdmissionLimit(limit)
	return s
}

func TestServerAdmissionUnderConcurrentLoad(t *testing.T) {
	s := admissionServer(t, 1)
	app := s.App
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				sq, err := s.Codec.SealQuery(app.Query("Q2"), []sqlparse.Value{sqlparse.IntVal(int64(1 + (w+i)%8))})
				if err != nil {
					t.Error(err)
					return
				}
				a, err := s.ExecQuery(sq)
				if err != nil {
					t.Error(err)
					return
				}
				a.Release()
			}
		}()
	}
	wg.Wait()
	if got := s.QueriesServed(); got != 160 {
		t.Fatalf("queries served = %d, want 160", got)
	}
	// The wait histogram saw every admission.
	snap := s.Obs().Snapshot()
	var waits int64
	for _, m := range snap.Metrics {
		if m.Name == obs.MHomeAdmissionWait {
			waits += m.Count
		}
	}
	if waits != 160 {
		t.Fatalf("admission wait observations = %d, want 160", waits)
	}
}

func BenchmarkAdmissionLimit(b *testing.B) {
	for _, limit := range []int{0, 4} {
		name := "unbounded"
		if limit > 0 {
			name = "limit4"
		}
		b.Run(name, func(b *testing.B) {
			s := admissionServer(b, limit)
			sq, err := s.Codec.SealQuery(s.App.Query("Q1"), []sqlparse.Value{sqlparse.StringVal("bear")})
			if err != nil {
				b.Fatal(err)
			}
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					a, err := s.ExecQuery(sq)
					if err != nil {
						b.Fatal(err)
					}
					a.Release()
				}
			})
		})
	}
}
