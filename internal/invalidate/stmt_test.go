package invalidate

import (
	"math"
	"math/rand"
	"testing"

	"dssp/internal/apps"
	"dssp/internal/sqlparse"
)

// TestRangeConsAgainstBruteForce cross-checks the interval solver against
// brute-force evaluation over a small integer domain: if any point in
// [-1, 12] satisfies all constraints, sat() must be true (the solver may
// also report sat for constraint sets whose only solutions are non-integer
// or outside the probe domain — it must only ever err toward sat).
func TestRangeConsAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	ops := []sqlparse.CompareOp{sqlparse.OpEq, sqlparse.OpLt, sqlparse.OpLe, sqlparse.OpGt, sqlparse.OpGe}
	for trial := 0; trial < 5000; trial++ {
		var rc rangeCons
		type cons struct {
			op sqlparse.CompareOp
			v  int64
		}
		var cs []cons
		for i := 0; i < 1+rng.Intn(4); i++ {
			c := cons{ops[rng.Intn(len(ops))], int64(rng.Intn(10))}
			cs = append(cs, c)
			rc.add(c.op, sqlparse.IntVal(c.v))
		}
		bruteSat := false
		for x := int64(-1); x <= 12 && !bruteSat; x++ {
			ok := true
			for _, c := range cs {
				if !c.op.Holds(compareInt(x, c.v)) {
					ok = false
					break
				}
			}
			bruteSat = ok
		}
		got := rc.sat()
		if bruteSat && !got {
			t.Fatalf("trial %d: solver says unsat but %v has a solution", trial, cs)
		}
		// The converse may differ only for integer-gap cases like
		// (x > 3 AND x < 4); check the solver is not *wildly* permissive:
		// with an equality present, sat must match brute force exactly.
		hasEq := false
		for _, c := range cs {
			if c.op == sqlparse.OpEq {
				hasEq = true
			}
		}
		if hasEq && got && !bruteSat {
			t.Fatalf("trial %d: solver says sat but equality-pinned %v has no solution", trial, cs)
		}
	}
}

func compareInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func TestRangeConsStrictBoundary(t *testing.T) {
	var rc rangeCons
	rc.add(sqlparse.OpGt, sqlparse.IntVal(5))
	rc.add(sqlparse.OpLe, sqlparse.IntVal(5))
	if rc.sat() {
		t.Error("x>5 AND x<=5 should be unsat")
	}
	var rc2 rangeCons
	rc2.add(sqlparse.OpGe, sqlparse.IntVal(5))
	rc2.add(sqlparse.OpLe, sqlparse.IntVal(5))
	if !rc2.sat() {
		t.Error("x>=5 AND x<=5 should be sat")
	}
	var rc3 rangeCons
	rc3.add(sqlparse.OpEq, sqlparse.IntVal(5))
	rc3.add(sqlparse.OpEq, sqlparse.IntVal(6))
	if rc3.sat() {
		t.Error("x=5 AND x=6 should be unsat")
	}
	var rc4 rangeCons
	rc4.add(sqlparse.OpEq, sqlparse.IntVal(5))
	rc4.add(sqlparse.OpLt, sqlparse.IntVal(5))
	if rc4.sat() {
		t.Error("x=5 AND x<5 should be unsat")
	}
}

func TestRangeConsStringValues(t *testing.T) {
	var rc rangeCons
	rc.add(sqlparse.OpEq, sqlparse.StringVal("abc"))
	rc.add(sqlparse.OpEq, sqlparse.StringVal("abd"))
	if rc.sat() {
		t.Error("distinct string equalities should be unsat")
	}
	var rc2 rangeCons
	rc2.add(sqlparse.OpGe, sqlparse.StringVal("b"))
	rc2.add(sqlparse.OpLt, sqlparse.StringVal("a"))
	if rc2.sat() {
		t.Error("x>='b' AND x<'a' should be unsat")
	}
}

func TestBindVal(t *testing.T) {
	params := []sqlparse.Value{sqlparse.IntVal(7)}
	v, ok := bindVal(sqlparse.Operand{Kind: sqlparse.OpParam, Param: 0}, params)
	if !ok || v.Int != 7 {
		t.Errorf("param bind: %v %v", v, ok)
	}
	if _, ok := bindVal(sqlparse.Operand{Kind: sqlparse.OpParam, Param: 3}, params); ok {
		t.Error("out-of-range param bound")
	}
	v, ok = bindVal(sqlparse.Operand{Kind: sqlparse.OpConst, Const: sqlparse.StringVal("x")}, nil)
	if !ok || v.Str != "x" {
		t.Errorf("const bind: %v %v", v, ok)
	}
	if _, ok := bindVal(sqlparse.Operand{Kind: sqlparse.OpColumn}, nil); ok {
		t.Error("column operand bound as value")
	}
}

// TestStatementInspectionNumericKinds pins how statement inspection treats
// numeric parameters of mixed kind, which is Value.Compare's: an int and a
// float of the same magnitude are one value, -0.0 is 0.0, and a NaN is
// unordered against every number, so no equality with it is refutable.
// Any index that narrows the per-entry scan to candidates (ROADMAP item
// one) must key on an encoding that is canonical under Compare — a
// kind-tagged key like storage.AppendKey's would file Int(5) and Float(5)
// apart and miss the first four invalidations below. An entry with fewer
// parameters than its template binds nothing; it cannot be refuted either.
func TestStatementInspectionNumericKinds(t *testing.T) {
	app := apps.Toystore()
	iv := newInvalidator(app)
	u1, q2 := app.Update("U1"), app.Query("Q2") // DELETE ... WHERE toy_id=? against SELECT ... WHERE toy_id=?
	for _, tc := range []struct {
		name   string
		update sqlparse.Value
		entry  []sqlparse.Value
		want   Decision
	}{
		{"float update, int entry", sqlparse.FloatVal(5), []sqlparse.Value{sqlparse.IntVal(5)}, Invalidate},
		{"int update, float entry", sqlparse.IntVal(5), []sqlparse.Value{sqlparse.FloatVal(5)}, Invalidate},
		{"negative zero", sqlparse.FloatVal(math.Copysign(0, -1)), []sqlparse.Value{sqlparse.FloatVal(0)}, Invalidate},
		{"NaN update", sqlparse.FloatVal(math.NaN()), []sqlparse.Value{sqlparse.IntVal(7)}, Invalidate},
		{"distinct ints", sqlparse.IntVal(5), []sqlparse.Value{sqlparse.IntVal(6)}, DNI},
		{"entry short of its template's arity", sqlparse.IntVal(5), nil, Invalidate},
	} {
		u := UpdateInstance{Template: u1, Params: []sqlparse.Value{tc.update}}
		if got := decide(iv, StatementInspection, u, CachedView{Template: q2, Params: tc.entry}); got != tc.want {
			t.Errorf("%s: U1(%v) against Q2%v decided %v, want %v", tc.name, tc.update, tc.entry, got, tc.want)
		}
	}
}
