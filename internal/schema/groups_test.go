package schema

import (
	"fmt"
	"math/rand"
	"testing"
)

func toySchema(t *testing.T) *Schema {
	t.Helper()
	s := New()
	s.MustAddTable("toys", []Column{{Name: "toy_id", Type: TInt}}, "toy_id")
	s.MustAddTable("customers", []Column{{Name: "cust_id", Type: TInt}}, "cust_id")
	s.MustAddTable("credit_card", []Column{{Name: "cid", Type: TInt}}, "cid")
	s.MustAddForeignKey("credit_card", "cid", "customers", "cust_id")
	return s
}

func TestDeriveGroupsToystore(t *testing.T) {
	s := toySchema(t)
	g := DeriveGroups(s, [][]string{{"customers", "credit_card"}})
	if len(g.names) != 2 {
		t.Fatalf("toystore groups = %d (%v), want 2", len(g.names), g)
	}
	if g.OfTable("toys") != 0 {
		t.Errorf("toys in group %d, want 0 (first declared)", g.OfTable("toys"))
	}
	if g.OfTable("customers") != 1 || g.OfTable("credit_card") != 1 {
		t.Errorf("FK-connected customers/credit_card split: %d vs %d", g.OfTable("customers"), g.OfTable("credit_card"))
	}
	if g.OfTable("nope") != -1 {
		t.Errorf("unknown table got group %d, want -1", g.OfTable("nope"))
	}
	if got := g.names[1]; len(got) != 2 || got[0] != "customers" || got[1] != "credit_card" {
		t.Errorf("group 1 tables = %v, want [customers credit_card] in declaration order", got)
	}
}

// TestDeriveGroupsCoRefMergesComponents pins the cross-group pinning
// rule: a template whose relation list spans two FK components merges
// them, so no template is ever split across partitions.
func TestDeriveGroupsCoRefMergesComponents(t *testing.T) {
	s := toySchema(t)
	g := DeriveGroups(s, [][]string{{"toys", "credit_card"}})
	if len(g.names) != 1 {
		t.Fatalf("co-referenced components not merged: %v", g)
	}
}

// TestPartitionOf pins the group→partition rule both sides of the trust
// boundary compute: modulo, with unknown/unhinted groups on partition 0.
func TestPartitionOf(t *testing.T) {
	cases := []struct{ group, parts, want int }{
		{0, 1, 0}, {5, 1, 0}, {0, 2, 0}, {1, 2, 1}, {2, 2, 0}, {3, 2, 1},
		{3, 4, 3}, {5, 4, 1}, {-1, 4, 0}, {2, 0, 0},
	}
	for _, c := range cases {
		if got := PartitionOf(c.group, c.parts); got != c.want {
			t.Errorf("PartitionOf(%d, %d) = %d, want %d", c.group, c.parts, got, c.want)
		}
	}
}

// randomSchema builds a deterministic pseudo-random schema with nTables
// tables, random FK edges, and random co-reference sets — the property
// test's input space.
func randomSchema(rng *rand.Rand, nTables int) (*Schema, [][]string, []string) {
	s := New()
	names := make([]string, nTables)
	for i := range names {
		names[i] = fmt.Sprintf("t%02d", i)
		s.MustAddTable(names[i], []Column{{Name: "id", Type: TInt}}, "id")
	}
	for i := 1; i < nTables; i++ {
		if rng.Intn(3) == 0 { // ~1/3 of tables FK-link to an earlier one
			s.MustAddForeignKey(names[i], "id", names[rng.Intn(i)], "id")
		}
	}
	var coRefs [][]string
	for k := 0; k < rng.Intn(5); k++ {
		set := []string{names[rng.Intn(nTables)], names[rng.Intn(nTables)]}
		coRefs = append(coRefs, set)
	}
	return s, coRefs, names
}

// TestDeriveGroupsProperties checks, over many random schemas, the
// invariants partition routing depends on: the assignment is total
// (every table gets exactly one group, ids dense in [0, Count)), it
// respects every FK edge and co-reference set (endpoints share a group),
// and it is stable (re-deriving yields the identical assignment — the
// trusted and untrusted sides derive independently and must agree).
func TestDeriveGroupsProperties(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s, coRefs, names := randomSchema(rng, 2+rng.Intn(10))
		g := DeriveGroups(s, coRefs)

		seen := make(map[int]bool)
		for _, n := range names {
			id := g.OfTable(n)
			if id < 0 || id >= len(g.names) {
				t.Fatalf("seed %d: table %s got group %d outside [0,%d)", seed, n, id, len(g.names))
			}
			seen[id] = true
		}
		if len(seen) != len(g.names) {
			t.Fatalf("seed %d: %d distinct groups assigned, Count() = %d", seed, len(seen), len(g.names))
		}
		for _, fk := range s.ForeignKeys {
			if g.OfTable(fk.Table) != g.OfTable(fk.RefTable) {
				t.Fatalf("seed %d: FK %s->%s split across groups %d/%d",
					seed, fk.Table, fk.RefTable, g.OfTable(fk.Table), g.OfTable(fk.RefTable))
			}
		}
		for _, set := range coRefs {
			if g.OfTable(set[0]) != g.OfTable(set[1]) {
				t.Fatalf("seed %d: co-ref %v split across groups", seed, set)
			}
		}

		// Stability: a second independent derivation agrees exactly.
		g2 := DeriveGroups(s, coRefs)
		for _, n := range names {
			if g.OfTable(n) != g2.OfTable(n) {
				t.Fatalf("seed %d: unstable assignment for %s: %d then %d", seed, n, g.OfTable(n), g2.OfTable(n))
			}
		}

		// Canonical numbering: walking tables in declaration order, the
		// first appearance of each group id is in increasing order.
		next := 0
		for _, n := range names {
			if id := g.OfTable(n); id == next {
				next++
			} else if id > next {
				t.Fatalf("seed %d: group %d appeared before %d in declaration order", seed, id, next)
			}
		}
	}
}
