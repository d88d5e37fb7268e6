package pipeline

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"dssp/internal/obs"
	"dssp/internal/wire"
)

// fakePrimary counts transport calls and answers immediately.
type fakePrimary struct {
	queries atomic.Int64
	updates atomic.Int64
}

func (p *fakePrimary) ExecQuery(_ context.Context, _ wire.SealedQuery, done func(ExecQueryResult, error)) {
	p.queries.Add(1)
	done(ExecQueryResult{Result: wire.SealedResult{Cipher: []byte("primary")}}, nil)
}

func (p *fakePrimary) ExecUpdate(_ context.Context, _ wire.SealedUpdate, done func(ExecUpdateResult, error)) {
	p.updates.Add(1)
	done(ExecUpdateResult{Affected: 1, Seq: uint64(p.updates.Load())}, nil)
}

// fakeReplica answers when its applied watermark covers the floor and
// refuses with a LagError otherwise, like a real replica backend.
type fakeReplica struct {
	applied uint64
	fail    error
	queries atomic.Int64
}

func (r *fakeReplica) QueryAt(_ context.Context, _ wire.SealedQuery, minSeq uint64, done func(ExecQueryResult, error)) {
	r.queries.Add(1)
	if r.fail != nil {
		done(ExecQueryResult{}, r.fail)
		return
	}
	if r.applied < minSeq {
		done(ExecQueryResult{}, &LagError{Applied: r.applied})
		return
	}
	done(ExecQueryResult{Result: wire.SealedResult{Cipher: []byte("replica")}, Applied: r.applied}, nil)
}

func execOne(t *testing.T, s *ReplicaSet) ExecQueryResult {
	t.Helper()
	var out ExecQueryResult
	s.ExecQuery(context.Background(), wire.SealedQuery{Key: "k"}, func(r ExecQueryResult, err error) {
		if err != nil {
			t.Fatal(err)
		}
		out = r
	})
	return out
}

func TestFreshnessFloorIsMonotone(t *testing.T) {
	f := NewFreshnessParts(1)
	f.Raise(0, 7)
	f.Raise(0, 3)
	if got := f.Floor(0); got != 7 {
		t.Fatalf("floor = %d after Raise(7), Raise(3); want 7", got)
	}
	f.Raise(0, 12)
	if got := f.Floor(0); got != 12 {
		t.Fatalf("floor = %d, want 12", got)
	}
}

func TestFreshnessVectorIsPerPartition(t *testing.T) {
	f := NewFreshnessParts(2)
	f.Raise(1, 7) // group 1 -> partition 1
	f.Raise(2, 4) // group 2 -> partition 0
	if got := f.Floor(1); got != 7 {
		t.Fatalf("partition 1 floor = %d, want 7", got)
	}
	if got := f.Floor(2); got != 4 {
		t.Fatalf("partition 0 floor = %d, want 4", got)
	}
	// Group 3 shares partition 1 with group 1: same slot, same floor.
	if got := f.Floor(3); got != 7 {
		t.Fatalf("group 3 (partition 1) floor = %d, want 7", got)
	}
	// Raising one partition never disturbs the other.
	f.Raise(2, 100)
	if got := f.Floor(1); got != 7 {
		t.Fatalf("partition 1 floor moved to %d on a partition-0 raise", got)
	}
	if got, want := []uint64{f.floors[0].Load(), f.floors[1].Load()}, []uint64{100, 7}; got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("floors = %v, want %v", got, want)
	}
	// Unhinted messages (group <= 0) conservatively use partition 0.
	if got := f.Floor(-1); got != 100 {
		t.Fatalf("unhinted floor = %d, want partition 0's 100", got)
	}
	// The single-slot vector collapses every group to one floor.
	s := NewFreshnessParts(1)
	s.Raise(5, 9)
	if got := s.Floor(2); got != 9 {
		t.Fatalf("single-partition floor = %d, want 9 for any group", got)
	}
}

func TestReplicaSetServesMissesFromReplicas(t *testing.T) {
	primary := &fakePrimary{}
	r1, r2 := &fakeReplica{applied: 5}, &fakeReplica{applied: 5}
	reg := obs.NewRegistry()
	s := NewReplicaSet(primary, []ReplicaEndpoint{
		{Name: "a", Backend: r1}, {Name: "b", Backend: r2},
	}, NewFreshnessParts(1), reg)

	// With nothing confirmed yet (floor 0), every replica is fresh; the
	// rotating least-loaded selection spreads misses and no miss reaches
	// the primary.
	for i := 0; i < 6; i++ {
		if got := execOne(t, s); string(got.Result.Cipher) != "replica" {
			t.Fatalf("miss %d served by %q, want replica", i, got.Result.Cipher)
		}
	}
	if n := primary.queries.Load(); n != 0 {
		t.Errorf("primary served %d misses, want 0", n)
	}
	if a, b := r1.queries.Load(), r2.queries.Load(); a == 0 || b == 0 {
		t.Errorf("misses not spread: replica a %d, replica b %d", a, b)
	}
	if n := reg.Counter(obs.MHomeReplicaMisses, obs.L(obs.LReplica, "a")).Value(); n != r1.queries.Load() {
		t.Errorf("replica a miss counter %d, want %d", n, r1.queries.Load())
	}
}

func TestReplicaSetBypassesLaggingReplicaToPrimary(t *testing.T) {
	primary := &fakePrimary{}
	lagging := &fakeReplica{applied: 2}
	fresh := NewFreshnessParts(1)
	fresh.Raise(0, 10)
	reg := obs.NewRegistry()
	s := NewReplicaSet(primary, []ReplicaEndpoint{{Name: "a", Backend: lagging}}, fresh, reg)

	if got := execOne(t, s); string(got.Result.Cipher) != "primary" {
		t.Fatalf("lagging replica answered %q, want primary fallback", got.Result.Cipher)
	}
	if n := primary.queries.Load(); n != 1 {
		t.Fatalf("primary served %d misses, want 1", n)
	}
	if n := reg.Counter(obs.MHomeReplicaBypasses, obs.L(obs.LReason, "lag")).Value(); n != 1 {
		t.Errorf("lag bypass counter = %d, want 1", n)
	}
	if g := reg.Gauge(obs.MHomeReplicaLag, obs.L(obs.LReplica, "a")).Value(); g != 8 {
		t.Errorf("replica lag gauge = %d, want 8 (floor 10 - applied 2)", g)
	}

	// The refusal refreshed the node's view; once the replica catches up
	// past the floor, the periodic probe rediscovers it.
	lagging.applied = 10
	var servedByReplica bool
	for i := 0; i < 4 && !servedByReplica; i++ {
		servedByReplica = string(execOne(t, s).Result.Cipher) == "replica"
	}
	if !servedByReplica {
		t.Error("caught-up replica never rediscovered")
	}
}

func TestReplicaSetPrefersFreshOverLagging(t *testing.T) {
	primary := &fakePrimary{}
	lagging, fresh1 := &fakeReplica{applied: 1}, &fakeReplica{applied: 9}
	fresh := NewFreshnessParts(1)
	fresh.Raise(0, 9)
	s := NewReplicaSet(primary, []ReplicaEndpoint{
		{Name: "lag", Backend: lagging}, {Name: "ok", Backend: fresh1},
	}, fresh, nil)

	// Warm the set's view of both replicas (optimistic probes), then every
	// subsequent miss must go to the fresh one, never the primary.
	execOne(t, s)
	execOne(t, s)
	before := fresh1.queries.Load()
	for i := 0; i < 8; i++ {
		execOne(t, s)
	}
	if got := fresh1.queries.Load() - before; got != 8 {
		t.Errorf("fresh replica served %d of 8 misses after warmup", got)
	}
	if n := primary.queries.Load(); n > 2 {
		t.Errorf("primary served %d misses, want at most the 2 warmup bypasses", n)
	}
}

func TestReplicaSetPeriodicProbeRediscoversCaughtUpReplica(t *testing.T) {
	primary := &fakePrimary{}
	r1, r2 := &fakeReplica{applied: 10}, &fakeReplica{applied: 2}
	fresh := NewFreshnessParts(1)
	fresh.Raise(0, 10)
	s := NewReplicaSet(primary, []ReplicaEndpoint{
		{Name: "a", Backend: r1}, {Name: "b", Backend: r2},
	}, fresh, nil)

	// Warm the view: r1 serves, r2 refuses once and is then skipped.
	for i := 0; i < 4; i++ {
		execOne(t, s)
	}
	r2.applied = 10 // replica catches up, but the set's view still says 2
	before := r2.queries.Load()
	for i := 0; i < 2*staleProbeEvery; i++ {
		execOne(t, s)
	}
	if got := r2.queries.Load() - before; got == 0 {
		t.Fatal("caught-up replica never re-probed; it is starved forever")
	}
}

func TestReplicaSetFailedReplicaFallsBackToPrimary(t *testing.T) {
	primary := &fakePrimary{}
	down := &fakeReplica{applied: 0, fail: errors.New("connection refused")}
	reg := obs.NewRegistry()
	s := NewReplicaSet(primary, []ReplicaEndpoint{{Name: "a", Backend: down}}, NewFreshnessParts(1), reg)

	if got := execOne(t, s); string(got.Result.Cipher) != "primary" {
		t.Fatalf("down replica answered %q, want primary fallback", got.Result.Cipher)
	}
	if n := reg.Counter(obs.MHomeReplicaBypasses, obs.L(obs.LReason, "error")).Value(); n != 1 {
		t.Errorf("error bypass counter = %d, want 1", n)
	}
}

// TestReplicaSetRotatesAmongEqualLoadReplicas pins the tie-break: under
// low load (sequential misses, zero in-flight everywhere) the selection
// must rotate deterministically across the fleet instead of concentrating
// on replica 0. A strict least-loaded rule with a fixed scan order would
// send every one of these misses to the lowest index.
func TestReplicaSetRotatesAmongEqualLoadReplicas(t *testing.T) {
	for _, n := range []int{2, 3} {
		primary := &fakePrimary{}
		reps := make([]*fakeReplica, n)
		eps := make([]ReplicaEndpoint, n)
		for i := range reps {
			reps[i] = &fakeReplica{applied: 5}
			eps[i] = ReplicaEndpoint{Name: string(rune('a' + i)), Backend: reps[i]}
		}
		s := NewReplicaSet(primary, eps, NewFreshnessParts(1), nil)
		const total = 60 // divisible by 2 and 3: an even split is exact
		for i := 0; i < total; i++ {
			execOne(t, s)
		}
		for i, r := range reps {
			if got := r.queries.Load(); got != total/int64(n) {
				t.Errorf("fleet of %d: replica %d served %d of %d misses, want exactly %d (rotating tie-break)",
					n, i, got, total, total/n)
			}
		}
		if primary.queries.Load() != 0 {
			t.Errorf("fleet of %d: primary served misses under zero load", n)
		}
	}
}

// TestReplicaSetTieBreakIsDeterministic replays the same miss sequence
// twice and demands the identical per-replica distribution: the rotation
// is a counter, not randomness, so two equally-configured nodes agree on
// where miss k goes.
func TestReplicaSetTieBreakIsDeterministic(t *testing.T) {
	run := func() []int64 {
		reps := []*fakeReplica{{applied: 5}, {applied: 5}, {applied: 5}}
		s := NewReplicaSet(&fakePrimary{}, []ReplicaEndpoint{
			{Name: "a", Backend: reps[0]}, {Name: "b", Backend: reps[1]}, {Name: "c", Backend: reps[2]},
		}, NewFreshnessParts(1), nil)
		var order []int64
		for i := 0; i < 10; i++ {
			execOne(t, s)
			order = append(order, reps[0].queries.Load(), reps[1].queries.Load(), reps[2].queries.Load())
		}
		return order
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("selection diverged between identical runs at step %d: %v vs %v", i, a, b)
		}
	}
}

// TestReplicaSetBypassCountsOnceNotAsMiss pins the 409 counter contract:
// a lag refusal that bypasses to the primary increments the bypass
// instrument exactly once and must NOT also count in the per-replica
// miss counter — that counter means "misses this replica served", and
// the replica served nothing. Double-counting would make served+bypassed
// exceed the actual miss total and skew the homescale experiment's
// replica-offload arithmetic.
func TestReplicaSetBypassCountsOnceNotAsMiss(t *testing.T) {
	primary := &fakePrimary{}
	lagging := &fakeReplica{applied: 2}
	fresh := NewFreshnessParts(1)
	fresh.Raise(0, 10)
	reg := obs.NewRegistry()
	s := NewReplicaSet(primary, []ReplicaEndpoint{{Name: "a", Backend: lagging}}, fresh, reg)

	const bypasses = 3
	for i := 0; i < bypasses; i++ {
		execOne(t, s)
	}
	missCtr := reg.Counter(obs.MHomeReplicaMisses, obs.L(obs.LReplica, "a"))
	lagCtr := reg.Counter(obs.MHomeReplicaBypasses, obs.L(obs.LReason, "lag"))
	errCtr := reg.Counter(obs.MHomeReplicaBypasses, obs.L(obs.LReason, "error"))
	if got := missCtr.Value(); got != 0 {
		t.Errorf("per-replica miss counter = %d after %d bypasses, want 0 (replica served nothing)", got, bypasses)
	}
	if got := lagCtr.Value(); got != bypasses {
		t.Errorf("lag bypass counter = %d, want %d (exactly once per refusal)", got, bypasses)
	}
	if got := errCtr.Value(); got != 0 {
		t.Errorf("error bypass counter = %d, want 0 for lag refusals", got)
	}

	// Once the replica catches up, served misses move the miss counter
	// and leave the bypass counters alone — the instruments partition the
	// miss stream instead of overlapping on it.
	lagging.applied = 10
	execOne(t, s)
	if got := missCtr.Value(); got != 1 {
		t.Errorf("per-replica miss counter = %d after a served miss, want 1", got)
	}
	if got := lagCtr.Value(); got != bypasses {
		t.Errorf("lag bypass counter moved to %d on a served miss, want %d", got, bypasses)
	}
}

func TestReplicaSetUpdatesAlwaysExecuteOnPrimary(t *testing.T) {
	primary := &fakePrimary{}
	rep := &fakeReplica{applied: 100}
	s := NewReplicaSet(primary, []ReplicaEndpoint{{Name: "a", Backend: rep}}, NewFreshnessParts(1), nil)
	var seq uint64
	s.ExecUpdate(context.Background(), wire.SealedUpdate{}, func(r ExecUpdateResult, err error) {
		if err != nil {
			t.Fatal(err)
		}
		seq = r.Seq
	})
	if primary.updates.Load() != 1 || seq != 1 {
		t.Fatalf("update executed %d times on primary with seq %d, want 1/1", primary.updates.Load(), seq)
	}
}
