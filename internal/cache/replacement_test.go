package cache

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"dssp/internal/obs"
	"dssp/internal/sqlparse"
)

// Without hits the policy is first in, first out.

func TestCapacityEvictsLRU(t *testing.T) {
	c, codec, app := testStack(t, nil, Options{Capacity: 3})
	q := app.Query("Q2")
	for i := int64(1); i <= 5; i++ {
		c.Store(seal(t, codec, q, sqlparse.IntVal(i)), codec.SealResult(q, result(i)), false)
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
	}
	st := c.Stats()
	if st.Evictions != 2 {
		t.Errorf("Evictions = %d", st.Evictions)
	}
	// No entry was hit, so the two oldest (1, 2) are gone; 3..5 remain.
	for i := int64(1); i <= 5; i++ {
		_, hit := c.Lookup(seal(t, codec, q, sqlparse.IntVal(i)))
		want := i >= 3
		if hit != want {
			t.Errorf("entry %d: hit=%v want %v", i, hit, want)
		}
	}
}

func TestLookupRefreshesRecency(t *testing.T) {
	c, codec, app := testStack(t, nil, Options{Capacity: 2})
	q := app.Query("Q2")
	c.Store(seal(t, codec, q, sqlparse.IntVal(1)), codec.SealResult(q, result(1)), false)
	c.Store(seal(t, codec, q, sqlparse.IntVal(2)), codec.SealResult(q, result(2)), false)
	// Hit 1: it is older than 2, but 2 becomes the victim.
	if _, hit := c.Lookup(seal(t, codec, q, sqlparse.IntVal(1))); !hit {
		t.Fatal("entry 1 missing")
	}
	c.Store(seal(t, codec, q, sqlparse.IntVal(3)), codec.SealResult(q, result(3)), false)
	if _, hit := c.Lookup(seal(t, codec, q, sqlparse.IntVal(1))); !hit {
		t.Error("the entry that was hit was evicted")
	}
	if _, hit := c.Lookup(seal(t, codec, q, sqlparse.IntVal(2))); hit {
		t.Error("the unhit entry survived")
	}
}

func TestInvalidationUnlinksLRU(t *testing.T) {
	c, codec, app := testStack(t, nil, Options{Capacity: 10})
	q2 := app.Query("Q2")
	for i := int64(1); i <= 4; i++ {
		c.Store(seal(t, codec, q2, sqlparse.IntVal(i)), codec.SealResult(q2, result(i)), false)
	}
	su, _ := codec.SealUpdate(app.Update("U1"), []sqlparse.Value{sqlparse.IntVal(2)})
	if dropped := c.OnUpdate(su); dropped != 1 {
		t.Fatalf("dropped = %d", dropped)
	}
	auditQueues(t, c)
	// Filling far past capacity still converges to exactly Capacity.
	for i := int64(10); i < 40; i++ {
		c.Store(seal(t, codec, q2, sqlparse.IntVal(i)), codec.SealResult(q2, result(i)), false)
	}
	if c.Len() != 10 {
		t.Errorf("len=%d, want 10", c.Len())
	}
	auditQueues(t, c)
}

func TestStoreOverwriteKeepsLRUConsistent(t *testing.T) {
	c, codec, app := testStack(t, nil, Options{Capacity: 4})
	q := app.Query("Q2")
	for i := 0; i < 10; i++ {
		// Re-store the same key repeatedly; the queues must not grow.
		c.Store(seal(t, codec, q, sqlparse.IntVal(7)), codec.SealResult(q, result(int64(i))), false)
	}
	if c.Len() != 1 {
		t.Errorf("len=%d after overwrites", c.Len())
	}
	auditQueues(t, c)
}

// queueKeys lists a queue's keys, oldest first.
func queueKeys(c *Cache, q *fifo) []string {
	c.lruMu.Lock()
	defer c.lruMu.Unlock()
	var out []string
	for e := q.tail; e != nil; e = e.prev {
		out = append(out, e.Query.TemplateID+"|"+e.Query.Key)
	}
	return out
}

// Two uncoalesced misses of one key store it twice. The second store must
// not restart the key cold at the head of small: it takes over the queue,
// the position in it and the hit count of the entry it replaces.
func TestStoreOverwriteInheritsQueueAndCount(t *testing.T) {
	c, codec, app := testStack(t, nil, Options{Capacity: 4})
	q := app.Query("Q2")
	store := func(i, v int64) {
		c.Store(seal(t, codec, q, sqlparse.IntVal(i)), codec.SealResult(q, result(v)), false)
	}
	for i := int64(1); i <= 4; i++ {
		store(i, i)
	}
	c.Lookup(seal(t, codec, q, sqlparse.IntVal(1)))
	store(5, 5) // 1 was hit: promoted to main; 2 evicted
	c.Lookup(seal(t, codec, q, sqlparse.IntVal(1)))
	c.Lookup(seal(t, codec, q, sqlparse.IntVal(3)))
	small, main := queueKeys(c, &c.small), queueKeys(c, &c.main)
	if len(small) != 3 || len(main) != 1 {
		t.Fatalf("fixture: small %v, main %v", small, main)
	}

	store(1, 100) // overwrites the entry in main
	store(3, 300) // overwrites the oldest entry of small
	if got := queueKeys(c, &c.small); !reflect.DeepEqual(got, small) {
		t.Errorf("small = %v after overwrites, want %v", got, small)
	}
	if got := queueKeys(c, &c.main); !reflect.DeepEqual(got, main) {
		t.Errorf("main = %v after overwrites, want %v", got, main)
	}
	c.Entries(func(e *Entry) {
		switch e.Query.Params[0].Int {
		case 1, 3:
			if e.freq.Load() != 1 {
				t.Errorf("entry %d restarted with hit count %d, want the replaced entry's 1", e.Query.Params[0].Int, e.freq.Load())
			}
			if e.PlaintextResult().Rows[0][0].Int < 100 {
				t.Errorf("entry %d kept the replaced result", e.Query.Params[0].Int)
			}
		}
	})
	auditQueues(t, c)
}

// A scan of ten times Capacity cold keys passes through the small queue
// and leaves a set that was hit twice where it was.
func TestScanDoesNotEvictHitSet(t *testing.T) {
	const capacity, hot = 50, 20
	c, codec, app := testStack(t, nil, Options{Capacity: capacity})
	q := app.Query("Q2")
	for i := int64(0); i < hot; i++ {
		c.Store(seal(t, codec, q, sqlparse.IntVal(i)), codec.SealResult(q, result(i)), false)
	}
	for pass := 0; pass < 2; pass++ {
		for i := int64(0); i < hot; i++ {
			c.Lookup(seal(t, codec, q, sqlparse.IntVal(i)))
		}
	}
	for i := int64(1000); i < 1000+10*capacity; i++ {
		c.Store(seal(t, codec, q, sqlparse.IntVal(i)), codec.SealResult(q, result(i)), false)
	}
	for i := int64(0); i < hot; i++ {
		if _, hit := c.Lookup(seal(t, codec, q, sqlparse.IntVal(i))); !hit {
			t.Errorf("hot entry %d was evicted by the scan", i)
		}
	}
	if got := c.Stats().Evictions; got != 10*capacity-(capacity-hot) {
		t.Errorf("Evictions = %d, want every cold key past the free space (%d)", got, 10*capacity-(capacity-hot))
	}
	auditQueues(t, c)
}

// A key evicted from small without a hit is remembered: stored again it
// lands in main, and the readmission is counted. A key never seen lands in
// small.
func TestGhostReadmitsToMain(t *testing.T) {
	reg := obs.NewRegistry()
	c, codec, app := testStack(t, nil, Options{Capacity: 10, Obs: reg})
	q := app.Query("Q2")
	store := func(i int64) {
		c.Store(seal(t, codec, q, sqlparse.IntVal(i)), codec.SealResult(q, result(i)), false)
	}
	for i := int64(1); i <= 11; i++ {
		store(i)
	}
	first := seal(t, codec, q, sqlparse.IntVal(1))
	if _, hit := c.Lookup(first); hit {
		t.Fatal("fixture: entry 1 was not evicted")
	}
	if got := reg.Counter(obs.MCacheGhostReadmits).Value(); got != 0 {
		t.Fatalf("%s = %d before any readmission", obs.MCacheGhostReadmits, got)
	}
	store(1)
	store(12)
	if got, want := queueKeys(c, &c.main), []string{"Q2|" + first.Key}; !reflect.DeepEqual(got, want) {
		t.Errorf("main = %v, want the readmitted key %v", got, want)
	}
	if got := reg.Counter(obs.MCacheGhostReadmits).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", obs.MCacheGhostReadmits, got)
	}
	store(1) // still cached: an overwrite, not a readmission
	if got := reg.Counter(obs.MCacheGhostReadmits).Value(); got != 1 {
		t.Errorf("%s = %d after an overwrite, want 1", obs.MCacheGhostReadmits, got)
	}
	// One series per cache: sealed traffic chooses template IDs, and must
	// not get to choose how many of these there are.
	for _, m := range reg.Snapshot().Metrics {
		if m.Name == obs.MCacheGhostReadmits && len(m.Labels) != 0 {
			t.Errorf("%s carries labels %v", obs.MCacheGhostReadmits, m.Labels)
		}
	}
	auditQueues(t, c)
}

// policyModel is the replacement policy over plain strings, written as
// directly as the description in replacement.go reads: queues are slices,
// oldest first; freq holds the hit count of every cached key; ghost the
// last cap keys evicted unhit from small, "" where one was taken back.
type policyModel struct {
	cap         int
	small, main []string
	freq        map[string]int
	ghost       []string
}

func (m *policyModel) hit(k string) {
	if f, ok := m.freq[k]; ok && f < 3 {
		m.freq[k] = f + 1
	}
}

func (m *policyModel) invalidate(k string) {
	delete(m.freq, k)
	m.small = slices.DeleteFunc(m.small, func(x string) bool { return x == k })
	m.main = slices.DeleteFunc(m.main, func(x string) bool { return x == k })
}

func (m *policyModel) store(k string) {
	if _, cached := m.freq[k]; cached {
		return // an overwrite keeps queue, position and count
	}
	m.freq[k] = 0
	if i := slices.Index(m.ghost, k); i >= 0 {
		m.ghost[i] = ""
		m.main = append(m.main, k)
	} else {
		m.small = append(m.small, k)
	}
	for len(m.small)+len(m.main) > m.cap {
		if len(m.small) > max(1, m.cap/10) || len(m.main) == 0 {
			v := m.small[0]
			m.small = m.small[1:]
			if m.freq[v] > 0 {
				m.freq[v] = 0
				m.main = append(m.main, v)
				continue
			}
			delete(m.freq, v)
			if m.ghost = append(m.ghost, v); len(m.ghost) > m.cap {
				m.ghost = m.ghost[1:]
			}
			continue
		}
		v := m.main[0]
		m.main = m.main[1:]
		if m.freq[v] > 0 {
			m.freq[v]--
			m.main = append(m.main, v)
			continue
		}
		delete(m.freq, v)
	}
}

// TestLRURandomizedConsistency drives the cache and policyModel with one
// random stream of stores, lookups and invalidating updates, and requires
// both queues to hold the same keys in the same order after every step.
// What an update invalidates is input to the policy, not part of it: the
// model is told which keys the cache dropped.
func TestLRURandomizedConsistency(t *testing.T) {
	const capacity = 24
	c, codec, app := testStack(t, nil, Options{Capacity: capacity})
	m := &policyModel{cap: capacity, freq: make(map[string]int)}
	q2 := app.Query("Q2")
	q1 := app.Query("Q1")
	rng := rand.New(rand.NewSource(5))
	// Skewed parameters, so some keys are hit and readmitted and most are not.
	param := func(n int) int { return rng.Intn(1 + rng.Intn(n)) }
	for step := 0; step < 3000; step++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3:
			sq := seal(t, codec, q2, sqlparse.IntVal(int64(param(80))))
			c.Store(sq, codec.SealResult(q2, result(1)), false)
			m.store("Q2|" + sq.Key)
		case 4:
			sq := seal(t, codec, q1, sqlparse.StringVal(fmt.Sprint(param(20))))
			c.Store(sq, codec.SealResult(q1, result(1)), false)
			m.store("Q1|" + sq.Key)
		case 5, 6, 7, 8:
			sq := seal(t, codec, q2, sqlparse.IntVal(int64(param(80))))
			c.Lookup(sq)
			m.hit("Q2|" + sq.Key)
		default:
			su, _ := codec.SealUpdate(app.Update("U1"), []sqlparse.Value{sqlparse.IntVal(int64(param(80)))})
			c.OnUpdate(su)
			live := c.Dump()
			for _, k := range append(append([]string(nil), m.small...), m.main...) {
				if !slices.Contains(live, k) {
					m.invalidate(k)
				}
			}
		}
		if got := queueKeys(c, &c.small); !slices.Equal(got, m.small) {
			t.Fatalf("step %d: small = %v, model %v", step, got, m.small)
		}
		if got := queueKeys(c, &c.main); !slices.Equal(got, m.main) {
			t.Fatalf("step %d: main = %v, model %v", step, got, m.main)
		}
		auditQueues(t, c)
	}
	st := c.Stats()
	if st.Evictions == 0 || st.Invalidations == 0 || len(m.main) == 0 {
		t.Errorf("stream too tame: %d evictions, %d invalidations, %d entries in main", st.Evictions, st.Invalidations, len(m.main))
	}
	if got := c.readmitsC.Value(); got == 0 {
		t.Error("no ghost readmission exercised")
	}
}
