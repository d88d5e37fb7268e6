package template

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"dssp/internal/schema"
)

// randomSchema builds a schema with a few relations and a foreign key.
func randomSchema(rng *rand.Rand) *schema.Schema {
	s := schema.New()
	nTables := 2 + rng.Intn(3)
	for t := 0; t < nTables; t++ {
		cols := []schema.Column{{Name: fmt.Sprintf("t%d_id", t), Type: schema.TInt}}
		for c := 0; c < 2+rng.Intn(3); c++ {
			typ := schema.TInt
			if rng.Intn(3) == 0 {
				typ = schema.TString
			}
			cols = append(cols, schema.Column{Name: fmt.Sprintf("t%d_c%d", t, c), Type: typ})
		}
		s.MustAddTable(fmt.Sprintf("t%d", t), cols, fmt.Sprintf("t%d_id", t))
	}
	if nTables >= 2 && rng.Intn(2) == 0 {
		s.MustAddForeignKey("t1", "t1_c0", "t0", "t0_id")
	}
	return s
}

// randomQuerySQL builds a random single- or two-table query over the
// schema.
func randomQuerySQL(rng *rand.Rand, s *schema.Schema) string {
	tables := s.Tables()
	t0 := tables[rng.Intn(len(tables))]
	var b strings.Builder
	b.WriteString("SELECT ")
	nproj := 1 + rng.Intn(3)
	for i := 0; i < nproj; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		c := t0.Columns[rng.Intn(len(t0.Columns))]
		if rng.Intn(8) == 0 {
			b.WriteString("MAX(" + c.Name + ")")
		} else {
			b.WriteString(c.Name)
		}
	}
	b.WriteString(" FROM " + t0.Name)
	preds := rng.Intn(3)
	if preds > 0 {
		b.WriteString(" WHERE ")
		for i := 0; i < preds; i++ {
			if i > 0 {
				b.WriteString(" AND ")
			}
			c := t0.Columns[rng.Intn(len(t0.Columns))]
			op := []string{"=", "<", ">", "<=", ">="}[rng.Intn(5)]
			b.WriteString(c.Name + op + "?")
		}
	}
	return b.String()
}

// randomUpdateSQL builds a random insertion, deletion, or modification.
func randomUpdateSQL(rng *rand.Rand, s *schema.Schema) string {
	tables := s.Tables()
	t := tables[rng.Intn(len(tables))]
	switch rng.Intn(3) {
	case 0:
		names := make([]string, len(t.Columns))
		marks := make([]string, len(t.Columns))
		for i, c := range t.Columns {
			names[i], marks[i] = c.Name, "?"
		}
		return fmt.Sprintf("INSERT INTO %s (%s) VALUES (%s)",
			t.Name, strings.Join(names, ", "), strings.Join(marks, ", "))
	case 1:
		c := t.Columns[rng.Intn(len(t.Columns))]
		op := []string{"=", "<", ">"}[rng.Intn(3)]
		return fmt.Sprintf("DELETE FROM %s WHERE %s%s?", t.Name, c.Name, op)
	default:
		// Modify a random non-key column, keyed on the primary key.
		var target string
		for _, c := range t.Columns {
			if !t.IsPrimaryKeyColumn(c.Name) {
				target = c.Name
				if rng.Intn(2) == 0 {
					break
				}
			}
		}
		return fmt.Sprintf("UPDATE %s SET %s=? WHERE %s=?", t.Name, target, t.PrimaryKey[0])
	}
}

// TestClassificationInvariants checks structural invariants of the
// classification over thousands of random templates:
//
//   - ParamSel ⊆ Sel,
//   - every attribute set refers only to relations in Relations,
//   - insertions/deletions modify every attribute of their relation,
//   - OutAttrs of non-aggregate outputs are preserved,
//   - the G and H tests are consistent with their set definitions.
func TestClassificationInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 3000; trial++ {
		s := randomSchema(rng)
		q, err := New("Q", s, randomQuerySQL(rng, s))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		u, err := New("U", s, randomUpdateSQL(rng, s))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}

		for a := range q.ParamSel {
			if !has(q.Sel, a) {
				t.Fatalf("trial %d: ParamSel %v not in Sel %v", trial, a, q.Sel)
			}
		}
		inRelations := func(tm *Template, set schema.AttrSet) {
			for a := range set {
				found := false
				for _, r := range tm.Relations {
					if r == a.Table {
						found = true
					}
				}
				if !found {
					t.Fatalf("trial %d: attr %v outside relations %v", trial, a, tm.Relations)
				}
			}
		}
		inRelations(q, q.Sel)
		inRelations(q, q.Pres)
		inRelations(q, q.AggAttrs)
		inRelations(u, u.Sel)
		inRelations(u, u.Mod)

		if u.Kind == KInsert || u.Kind == KDelete {
			rel := u.Relations[0]
			if len(u.Mod) != len(s.Table(rel).Columns) {
				t.Fatalf("trial %d: %v M(U) incomplete: %v", trial, u.Kind, u.Mod)
			}
		}
		for i, a := range q.OutAttrs {
			if q.OutAggs[i] == 0 /* AggNone */ && a != (schema.Attr{}) && !has(q.Pres, a) {
				t.Fatalf("trial %d: output attr %v not preserved", trial, a)
			}
		}

		// Definitional consistency of G and H.
		wantG := !u.Mod.Intersects(q.Pres.Union(q.Sel).Union(q.AggAttrs))
		if q.CountStar && (u.Kind == KInsert || u.Kind == KDelete) && sharesRelation(u, q) {
			wantG = false
		}
		if got := IgnorableFor(u, q); got != wantG {
			t.Fatalf("trial %d: IgnorableFor=%v want %v (u=%s q=%s)", trial, got, wantG, u.SQL, q.SQL)
		}
		wantH := !q.HasAggregate && !u.Sel.Intersects(q.Pres)
		if got := ResultUnhelpfulFor(u, q); got != wantH {
			t.Fatalf("trial %d: ResultUnhelpfulFor=%v want %v", trial, got, wantH)
		}
	}
}

func sharesRelation(u, q *Template) bool {
	for _, ur := range u.Relations {
		for _, qr := range q.Relations {
			if ur == qr {
				return true
			}
		}
	}
	return false
}

// TestIgnorableImpliesNoEffect: semantic spot-check of Lemma 1's direction
// used for correctness — for single-table templates with parameter-only
// predicates, if the pair is ignorable, executing the update can never
// change the query's result. (Full semantic coverage lives in the
// invalidate package's randomized ground-truth tests; this pins the
// classification itself.)
func TestIgnorableImpliesDisjointAttrs(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 2000; trial++ {
		s := randomSchema(rng)
		q := MustNew("Q", s, randomQuerySQL(rng, s))
		u := MustNew("U", s, randomUpdateSQL(rng, s))
		if !IgnorableFor(u, q) {
			continue
		}
		// Ignorable pairs must not share any modified/affecting attribute.
		if u.Mod.Intersects(q.Sel) || u.Mod.Intersects(q.Pres) || u.Mod.Intersects(q.AggAttrs) {
			t.Fatalf("trial %d: ignorable pair shares attributes: %s / %s", trial, u.SQL, q.SQL)
		}
	}
}
