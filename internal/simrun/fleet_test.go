package simrun

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"dssp/internal/apps"
	"dssp/internal/shard"
	"dssp/internal/sqlparse"
	"dssp/internal/storage"
	"dssp/internal/template"
	"dssp/internal/workload"
)

func fleetCfg(users int, events ...FleetEvent) Config {
	cfg := quickCfg(users)
	cfg.Nodes = 2
	cfg.Fleet = events
	return cfg
}

func TestFleetWarmJoinMigratesAndServes(t *testing.T) {
	warm, err := Simulate(fleetCfg(30, FleetEvent{At: 30 * time.Second, Kind: "join", Warm: true}))
	if err != nil {
		t.Fatal(err)
	}
	if warm.MigratedEntries == 0 {
		t.Error("warm join migrated no entries")
	}
	if len(warm.PerNode) != 3 {
		t.Fatalf("fleet ended with %d nodes, want 3", len(warm.PerNode))
	}
	if warm.PerNode[2].Hits == 0 {
		t.Error("joined node served no hits; migrated entries are not being used")
	}

	cold, err := Simulate(fleetCfg(30, FleetEvent{At: 30 * time.Second, Kind: "join", Warm: false}))
	if err != nil {
		t.Fatal(err)
	}
	if cold.MigratedEntries != 0 {
		t.Errorf("cold join migrated %d entries, want 0", cold.MigratedEntries)
	}
	// Hit/miss flips change service times and so the whole virtual-time
	// interleaving; the comparison tolerates that chaos but a warm join
	// must never trail a cold one substantially.
	if warm.HitRate < cold.HitRate-0.03 {
		t.Errorf("warm join hit rate %.4f substantially below cold join's %.4f; the handoff is buying nothing",
			warm.HitRate, cold.HitRate)
	}
}

func TestFleetKillLosesEntries(t *testing.T) {
	kill, err := Simulate(fleetCfg(30, FleetEvent{At: 30 * time.Second, Kind: "kill", Node: 0}))
	if err != nil {
		t.Fatal(err)
	}
	if kill.MigratedEntries != 0 {
		t.Errorf("kill migrated %d entries, want 0", kill.MigratedEntries)
	}
	if len(kill.PerNode) != 2 {
		t.Fatalf("fleet tracked %d node slots, want 2 (the killed node keeps its slot)", len(kill.PerNode))
	}

	drain, err := Simulate(fleetCfg(30, FleetEvent{At: 30 * time.Second, Kind: "leave", Node: 0, Warm: true}))
	if err != nil {
		t.Fatal(err)
	}
	if drain.MigratedEntries == 0 {
		t.Error("warm leave drained no entries to the survivor")
	}
	if drain.HitRate < kill.HitRate-0.03 {
		t.Errorf("drained leave hit rate %.4f substantially below kill's %.4f", drain.HitRate, kill.HitRate)
	}
}

// A join after the highest node was killed gets a fresh ID and a fresh
// cache: reusing the dead node's ID would bring back a cache that stopped
// seeing invalidations when the node left.
func TestFleetJoinAfterKillNeverReusesID(t *testing.T) {
	cfg := fleetCfg(30,
		FleetEvent{At: 20 * time.Second, Kind: "kill", Node: 2},
		FleetEvent{At: 40 * time.Second, Kind: "join", Warm: true})
	cfg.Nodes = 3
	r, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.PerNode) != 4 {
		t.Fatalf("fleet tracked %d node slots, want 4 (nodes 0-2 plus the joined node 3)", len(r.PerNode))
	}
	if joined := r.PerNode[3]; joined.Hits+joined.Misses == 0 {
		t.Error("joined node 3 served no lookups")
	}
}

func TestFleetEventsDeterministic(t *testing.T) {
	cfg := fleetCfg(30,
		FleetEvent{At: 20 * time.Second, Kind: "join", Warm: true},
		FleetEvent{At: 40 * time.Second, Kind: "kill", Node: 0})
	r1, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Ops != r2.Ops || r1.Cache != r2.Cache || r1.MigratedEntries != r2.MigratedEntries {
		t.Errorf("fleet events nondeterministic: %+v vs %+v", r1, r2)
	}
}

func TestFleetEventsValidation(t *testing.T) {
	// A kill the router refuses is the run's error, not a panic.
	_, err := Simulate(fleetCfg(10, FleetEvent{At: time.Second, Kind: "kill", Node: 7}))
	if !errors.Is(err, shard.ErrNotMember) {
		t.Errorf("kill of a non-member: err = %v, want %v", err, shard.ErrNotMember)
	}
	if _, err := Simulate(fleetCfg(10, FleetEvent{At: time.Second, Kind: "explode"})); err == nil {
		t.Error("unknown event kind accepted")
	}
}

// blindKeysBench is one user re-reading toystore's Q2(k), k = 1..40, a
// page of all 40 keys at a time, over a database that holds every one.
type blindKeysBench struct{ app *template.App }

const blindKeys = 40

func (b blindKeysBench) Name() string                             { return "blind-keys" }
func (b blindKeysBench) App() *template.App                       { return b.app }
func (b blindKeysBench) Compulsory() map[string]template.Exposure { return nil }

func (b blindKeysBench) Populate(db *storage.Database, _ *rand.Rand) error {
	for k := int64(1); k <= blindKeys; k++ {
		if err := db.Insert("toys", storage.Row{sqlparse.IntVal(k), sqlparse.StringVal("toy"), sqlparse.IntVal(k)}); err != nil {
			return err
		}
	}
	return nil
}

func (b blindKeysBench) NewSession(*rand.Rand) workload.Session { return blindKeysSession{b.app} }

type blindKeysSession struct{ app *template.App }

func (s blindKeysSession) NextPage() []workload.Op {
	ops := make([]workload.Op, blindKeys)
	for k := range ops {
		ops[k] = workload.Op{Template: s.app.Query("Q2"), Params: []sqlparse.Value{sqlparse.IntVal(int64(k + 1))}}
	}
	return ops
}

// A blind key stays on the node that built its entry across a join, as
// the HTTP router's blind-key cache keeps it: only each key's first read
// misses. Routing blind queries by the ring alone would re-hash some keys
// onto the joined node, where they miss again.
func TestSimBlindKeysStickyAcrossJoin(t *testing.T) {
	b := blindKeysBench{apps.Toystore()}
	cfg := DefaultConfig(b, 1)
	cfg.Duration = 60 * time.Second
	cfg.ThinkMean = time.Second
	cfg.Exposures = map[string]template.Exposure{"Q2": template.ExpBlind}
	cfg.Nodes = 2
	cfg.Fleet = []FleetEvent{{At: 30 * time.Second, Kind: "join", Warm: true}}
	r, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.PerNode) != 3 {
		t.Fatalf("fleet ended with %d nodes, want 3", len(r.PerNode))
	}
	if r.Cache.Misses != blindKeys || r.Cache.Hits == 0 {
		t.Errorf("misses %d (hits %d), want %d: only each key's first read may miss", r.Cache.Misses, r.Cache.Hits, blindKeys)
	}
}
