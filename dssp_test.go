package dssp

import (
	"strings"
	"testing"
	"time"
)

func newToySystem(t *testing.T, exps ExposureAssignment) *System {
	t.Helper()
	sys, err := NewSystem(Toystore(), make([]byte, KeySize), exps)
	if err != nil {
		t.Fatal(err)
	}
	rows := []struct {
		id   int64
		name string
		qty  int64
	}{{1, "bear", 10}, {2, "truck", 3}, {5, "kite", 25}}
	for _, r := range rows {
		if err := sys.DB.Insert("toys", []Value{Int(r.id), String(r.name), Int(r.qty)}); err != nil {
			t.Fatal(err)
		}
	}
	return sys
}

func TestSystemQueryUpdateFlow(t *testing.T) {
	sys := newToySystem(t, nil)
	res, hit, err := sys.QueryOutcome("Q2", 5)
	if err != nil || hit {
		t.Fatalf("first query: hit=%v err=%v", hit, err)
	}
	if res.Row(0)[0].Int() != 25 {
		t.Fatalf("result %v", res.Vals)
	}
	_, hit, err = sys.QueryOutcome("Q2", 5)
	if err != nil || !hit {
		t.Fatalf("second query: hit=%v err=%v", hit, err)
	}
	affected, invalidated, err := sys.Update("U1", 5)
	if err != nil || affected != 1 || invalidated != 1 {
		t.Fatalf("update: affected=%d invalidated=%d err=%v", affected, invalidated, err)
	}
	res, hit, err = sys.QueryOutcome("Q2", 5)
	if err != nil || hit || res.Len() != 0 {
		t.Fatalf("after delete: hit=%v len=%d err=%v", hit, res.Len(), err)
	}
	st := sys.CacheStats()
	if st.Hits != 1 || st.Invalidations != 1 {
		t.Errorf("stats: %+v", st)
	}
}

func TestSystemUnknownTemplate(t *testing.T) {
	sys := newToySystem(t, nil)
	if _, err := sys.Query("Q99"); err == nil || !strings.Contains(err.Error(), "unknown template") {
		t.Errorf("err = %v", err)
	}
	if _, _, err := sys.Update("U99"); err == nil {
		t.Error("unknown update accepted")
	}
}

func TestSystemWithMethodologyAssignment(t *testing.T) {
	app := Toystore()
	m := Methodology{App: app, Compulsory: ExposureAssignment{"U2": ExpTemplate}}
	r := m.Run()
	sys, err := NewSystem(app, make([]byte, KeySize), r.Final)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.DB.Insert("toys", []Value{Int(5), String("kite"), Int(25)}); err != nil {
		t.Fatal(err)
	}
	// Q2 runs at stmt exposure (result encrypted at the DSSP) but the
	// client still gets plaintext.
	res, err := sys.Query("Q2", 5)
	if err != nil || res.Row(0)[0].Int() != 25 {
		t.Fatalf("res=%v err=%v", res, err)
	}
	if _, err := sys.Query("Q2", 5); err != nil {
		t.Fatal(err)
	}
	if sys.CacheStats().Hits != 1 {
		t.Error("encrypted-result caching broken")
	}
}

func TestNewSystemRejectsBadKey(t *testing.T) {
	if _, err := NewSystem(Toystore(), []byte("short"), nil); err == nil {
		t.Error("short key accepted")
	}
}

func TestFacadeAnalyze(t *testing.T) {
	a := Analyze(Toystore())
	pa, ok := a.Pair("U1", "Q2")
	if !ok || pa.AZero || pa.BEqualsA || !pa.CEqualsB {
		t.Errorf("U1/Q2 = %+v ok=%v", pa, ok)
	}
	if n := EncryptedResultCount(Toystore(), MaxExposures(Toystore())); n != 0 {
		t.Errorf("max exposures encrypt %d results", n)
	}
}

func TestFacadeValues(t *testing.T) {
	if Int(5).Int() != 5 || Float(2.5).Float() != 2.5 || String("x").Str != "x" {
		t.Error("value constructors broken")
	}
}

func TestFacadeBenchmarks(t *testing.T) {
	for _, b := range []Benchmark{Bookstore(), Auction(), BBoard()} {
		if b.App() == nil || len(b.App().Queries) == 0 {
			t.Errorf("%s: empty app", b.Name())
		}
	}
}

func TestFacadeSimulate(t *testing.T) {
	cfg := DefaultSimConfig(BBoard(), 20)
	cfg.Duration = 30 * time.Second
	r, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Pages == 0 {
		t.Error("no pages simulated")
	}
	sla := DefaultSLA()
	if sla.Percentile != 90 || sla.Threshold != 2*time.Second {
		t.Errorf("sla = %+v", sla)
	}
}
