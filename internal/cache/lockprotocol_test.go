package cache

import (
	"testing"
	"time"

	"dssp/internal/sqlparse"
	"dssp/internal/wire"
)

// Deterministic regression tests for the shard/replacement-queue lock
// protocol. The concurrency bugs these pin down had windows of a few
// instructions — far too narrow for a stress test to hit reliably (in
// particular on a single-CPU runner, where goroutines only interleave at
// preemption points). Instead of racing the window, these tests freeze it:
// holding lruMu from the test parks the next queue transition
// (trackInsert, unlink) mid-flight, and the protocol requires every one of
// those transitions to happen inside the owning entry's shard critical
// section — so the parked goroutine must still hold its shard lock,
// observably via TryLock. The pre-fix protocol released the shard lock
// first (Store linked after publishing its bucket insert; dropAllBuckets
// unlocked mid-walk to unlink), which is exactly the window where a
// concurrent invalidation and a late link could strand a dead entry in a
// queue; under the old protocol the parked goroutine holds no shard lock
// and these tests fail. A hit is not a queue transition: it bumps the
// entry's count and must not wait for lruMu at all.

// heldShard returns a shard whose mutex is held steadily by another
// goroutine, or nil. The steadiness re-checks distinguish a goroutine
// parked on lruMu inside its shard critical section from one passing
// through a shard during a scan.
func heldShard(c *Cache) *shard {
	for _, s := range c.shards {
		if s.mu.TryLock() {
			s.mu.Unlock()
			continue
		}
		steady := true
		for i := 0; i < 3; i++ {
			time.Sleep(time.Millisecond)
			if s.mu.TryLock() {
				s.mu.Unlock()
				steady = false
				break
			}
		}
		if steady {
			return s
		}
	}
	return nil
}

// waitShardHeld polls until some shard lock is held steadily, or fails
// the test: the frozen queue transition is executing outside its shard
// critical section.
func waitShardHeld(t *testing.T, c *Cache, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if heldShard(c) != nil {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Errorf("%s parked at lruMu without holding its shard lock (transition escaped the shard critical section)", what)
}

// protocolFixture builds a bounded cache holding one linked Q2 entry.
func protocolFixture(t *testing.T) (*Cache, wire.SealedQuery, func(id string, param sqlparse.Value) (wire.SealedQuery, wire.SealedResult), wire.SealedUpdate) {
	t.Helper()
	c, codec, app := testStack(t, stmtExposures(), Options{Capacity: 16})
	mk := func(id string, param sqlparse.Value) (wire.SealedQuery, wire.SealedResult) {
		qt := app.Query(id)
		return seal(t, codec, qt, param), codec.SealResult(qt, result(1))
	}
	q1, r1 := mk("Q2", sqlparse.IntVal(1))
	c.Store(q1, r1, false)
	// A sealed update with an unknown template: the blind invalidation
	// path, without needing a blind exposure setup.
	blind := wire.SealedUpdate{TraceID: "t-blind"}
	return c, q1, mk, blind
}

func TestStoreLinksInsideShardCriticalSection(t *testing.T) {
	c, _, mk, _ := protocolFixture(t)
	c.lruMu.Lock()
	done := make(chan struct{})
	go func() {
		q2, r2 := mk("Q2", sqlparse.IntVal(2))
		c.Store(q2, r2, false)
		close(done)
	}()
	waitShardHeld(t, c, "Store")
	c.lruMu.Unlock()
	<-done
	auditQueues(t, c)
}

// TestLookupTakesNoReplacementLock is the opposite of the two around it:
// with lruMu held by the test, a hit completes and is counted on the entry.
func TestLookupTakesNoReplacementLock(t *testing.T) {
	c, q1, _, _ := protocolFixture(t)
	c.lruMu.Lock()
	defer c.lruMu.Unlock()
	done := make(chan bool, 1) // the one send must not block if the test gave up
	go func() {
		_, hit := c.Lookup(q1)
		done <- hit
	}()
	select {
	case hit := <-done:
		if !hit {
			t.Error("lookup missed a stored entry")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Lookup waits for lruMu")
	}
	var freq uint32
	c.Entries(func(e *Entry) { freq = e.freq.Load() })
	if freq != 1 {
		t.Errorf("hit count on the entry = %d, want 1", freq)
	}
}

func TestBlindWalkUnlinksInsideShardCriticalSection(t *testing.T) {
	c, _, mk, blind := protocolFixture(t)
	q2, r2 := mk("Q1", sqlparse.StringVal("bear"))
	c.Store(q2, r2, false) // a second non-empty bucket on another shard
	c.lruMu.Lock()
	done := make(chan int)
	go func() {
		done <- c.OnUpdate(blind)
	}()
	waitShardHeld(t, c, "blind invalidation's unlink")
	c.lruMu.Unlock()
	if dropped := <-done; dropped != 2 {
		t.Errorf("blind pass dropped %d entries, want 2", dropped)
	}
	if c.Len() != 0 {
		t.Errorf("%d entries survived a blind pass", c.Len())
	}
	auditQueues(t, c)
}
