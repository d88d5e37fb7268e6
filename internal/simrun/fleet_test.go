package simrun

import (
	"testing"
	"time"
)

func fleetCfg(users int, events ...FleetEvent) Config {
	cfg := quickCfg(users)
	cfg.Nodes = 2
	cfg.Affinity = true
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
	cfg := quickCfg(10)
	cfg.Fleet = []FleetEvent{{At: time.Second, Kind: "join"}}
	if _, err := Simulate(cfg); err == nil {
		t.Error("fleet events without Affinity accepted")
	}
	cfg = fleetCfg(10, FleetEvent{At: time.Second, Kind: "explode"})
	if _, err := Simulate(cfg); err == nil {
		t.Error("unknown event kind accepted")
	}
}
