package sqlparse

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestParseSelectBasic(t *testing.T) {
	stmt, err := Parse("SELECT toy_id FROM toys WHERE toy_name=?")
	if err != nil {
		t.Fatal(err)
	}
	s, ok := stmt.(*SelectStmt)
	if !ok {
		t.Fatalf("got %T, want *SelectStmt", stmt)
	}
	if len(s.Select) != 1 || s.Select[0].Col.Column != "toy_id" {
		t.Errorf("bad projection: %+v", s.Select)
	}
	if len(s.From) != 1 || s.From[0].Table != "toys" {
		t.Errorf("bad FROM: %+v", s.From)
	}
	if len(s.Where) != 1 {
		t.Fatalf("bad WHERE: %+v", s.Where)
	}
	p := s.Where[0]
	if p.Left.Kind != OpColumn || p.Left.Col.Column != "toy_name" {
		t.Errorf("bad left operand: %+v", p.Left)
	}
	if p.Op != OpEq {
		t.Errorf("bad op: %v", p.Op)
	}
	if p.Right.Kind != OpParam || p.Right.Param != 0 {
		t.Errorf("bad right operand: %+v", p.Right)
	}
	if s.Limit != -1 {
		t.Errorf("limit = %d, want -1", s.Limit)
	}
}

func TestParseSelectJoinAliases(t *testing.T) {
	stmt := MustParse("SELECT t1.toy_id, t2.qty FROM toys AS t1, toys t2 WHERE t1.qty > t2.qty AND t1.toy_name = ?")
	s := stmt.(*SelectStmt)
	if len(s.From) != 2 {
		t.Fatalf("FROM size %d, want 2", len(s.From))
	}
	if s.From[0].Alias != "t1" || s.From[1].Alias != "t2" {
		t.Errorf("aliases: %+v", s.From)
	}
	if len(s.Where) != 2 {
		t.Fatalf("WHERE size %d", len(s.Where))
	}
	if !s.Where[0].IsJoin() {
		t.Errorf("pred 0 should be a join: %v", s.Where[0])
	}
	if s.Where[1].IsJoin() {
		t.Errorf("pred 1 should not be a join: %v", s.Where[1])
	}
	if s.Where[0].Op != OpGt {
		t.Errorf("op = %v, want >", s.Where[0].Op)
	}
}

func TestParseSelectOrderLimit(t *testing.T) {
	s := MustParse("SELECT a, b FROM t WHERE a >= ? ORDER BY b DESC, a ASC LIMIT 10").(*SelectStmt)
	if len(s.OrderBy) != 2 {
		t.Fatalf("OrderBy: %+v", s.OrderBy)
	}
	if !s.OrderBy[0].Desc || s.OrderBy[1].Desc {
		t.Errorf("DESC flags wrong: %+v", s.OrderBy)
	}
	if s.Limit != 10 {
		t.Errorf("limit = %d", s.Limit)
	}
	if s.Where[0].Op != OpGe {
		t.Errorf("op = %v, want >=", s.Where[0].Op)
	}
}

func TestParseAggregates(t *testing.T) {
	s := MustParse("SELECT i_id, SUM(qty) AS total, COUNT(*) FROM order_line GROUP BY i_id ORDER BY total DESC LIMIT 50").(*SelectStmt)
	if !s.HasAggregate() {
		t.Fatal("HasAggregate = false")
	}
	if s.Select[1].Agg != AggSum || s.Select[1].Alias != "total" {
		t.Errorf("sum expr: %+v", s.Select[1])
	}
	if s.Select[2].Agg != AggCount || !s.Select[2].Star {
		t.Errorf("count expr: %+v", s.Select[2])
	}
	if len(s.GroupBy) != 1 || s.GroupBy[0].Column != "i_id" {
		t.Errorf("group by: %+v", s.GroupBy)
	}
}

func TestParseMinMaxAvg(t *testing.T) {
	s := MustParse("SELECT MIN(a), MAX(b), AVG(c) FROM t").(*SelectStmt)
	want := []AggFunc{AggMin, AggMax, AggAvg}
	for i, e := range s.Select {
		if e.Agg != want[i] {
			t.Errorf("expr %d agg = %v, want %v", i, e.Agg, want[i])
		}
	}
}

func TestParseStarNotCountRejected(t *testing.T) {
	if _, err := Parse("SELECT SUM(*) FROM t"); err == nil {
		t.Error("SUM(*) should be rejected")
	}
}

func TestParseInsert(t *testing.T) {
	s := MustParse("INSERT INTO credit_card (cid, number, zip_code) VALUES (?, ?, ?)").(*InsertStmt)
	if s.Table != "credit_card" {
		t.Errorf("table = %q", s.Table)
	}
	if len(s.Columns) != 3 || len(s.Values) != 3 {
		t.Fatalf("cols/vals: %v %v", s.Columns, s.Values)
	}
	for i, v := range s.Values {
		if v.Kind != OpParam || v.Param != i {
			t.Errorf("value %d = %+v", i, v)
		}
	}
}

func TestParseInsertWithConstants(t *testing.T) {
	s := MustParse("INSERT INTO toys (toy_id, toy_name, qty) VALUES (15, 'toyb', 10)").(*InsertStmt)
	if s.Values[0].Const.Int() != 15 {
		t.Errorf("value 0 = %v", s.Values[0])
	}
	if s.Values[1].Const.Str != "toyb" {
		t.Errorf("value 1 = %v", s.Values[1])
	}
}

func TestParseInsertArityMismatch(t *testing.T) {
	if _, err := Parse("INSERT INTO t (a, b) VALUES (?)"); err == nil {
		t.Error("arity mismatch should be rejected")
	}
	if _, err := Parse("INSERT INTO t (a) VALUES (?, ?)"); err == nil {
		t.Error("arity mismatch should be rejected")
	}
}

func TestParseInsertDuplicateColumn(t *testing.T) {
	if _, err := Parse("INSERT INTO t (a, b, a) VALUES (?, ?, ?)"); err == nil {
		t.Error("duplicate column should be rejected")
	}
}

func TestParseDelete(t *testing.T) {
	s := MustParse("DELETE FROM toys WHERE toy_id=?").(*DeleteStmt)
	if s.Table != "toys" || len(s.Where) != 1 {
		t.Errorf("%+v", s)
	}
}

func TestParseUpdate(t *testing.T) {
	s := MustParse("UPDATE toys SET qty=?, toy_name=? WHERE toy_id=?").(*UpdateStmt)
	if len(s.Set) != 2 {
		t.Fatalf("set: %+v", s.Set)
	}
	if s.Set[0].Value.Param != 0 || s.Set[1].Value.Param != 1 || s.Where[0].Right.Param != 2 {
		t.Errorf("parameter numbering wrong: %+v %+v", s.Set, s.Where)
	}
}

func TestParseUpdateRequiresWhere(t *testing.T) {
	if _, err := Parse("UPDATE toys SET qty=?"); err == nil {
		t.Error("UPDATE without WHERE should be rejected")
	}
}

func TestParseStringEscapes(t *testing.T) {
	s := MustParse("SELECT a FROM t WHERE b='it''s'").(*SelectStmt)
	if s.Where[0].Right.Const.Str != "it's" {
		t.Errorf("got %q", s.Where[0].Right.Const.Str)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT FROM t",
		"SELECT a FROM",
		"SELECT a FROM t WHERE",
		"SELECT a FROM t WHERE a ! b",
		"SELECT a FROM t WHERE a = 'unterminated",
		"DROP TABLE t",
		"SELECT a FROM t alias trailing",
		"INSERT INTO t VALUES (?)",
		"SELECT a FROM t LIMIT -3",
		"SELECT a FROM t WHERE a <> b",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestNumParams(t *testing.T) {
	cases := []struct {
		src string
		n   int
	}{
		{"SELECT a FROM t", 0},
		{"SELECT a FROM t WHERE b=? AND c>?", 2},
		{"INSERT INTO t (a, b, c) VALUES (?, ?, ?)", 3},
		{"UPDATE t SET a=? WHERE id=?", 2},
		{"DELETE FROM t WHERE id=?", 1},
	}
	for _, c := range cases {
		if got := NumParams(MustParse(c.src)); got != c.n {
			t.Errorf("NumParams(%q) = %d, want %d", c.src, got, c.n)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	srcs := []string{
		"SELECT toy_id FROM toys WHERE toy_name=?",
		"SELECT t1.toy_id, t1.qty, t2.toy_id, t2.qty FROM toys AS t1, toys AS t2 WHERE t1.toy_name=? AND t2.toy_name=? AND t1.qty>t2.qty",
		"SELECT MAX(qty) FROM toys",
		"SELECT a, b FROM t WHERE a>=? ORDER BY b DESC LIMIT 10",
		"SELECT i_id, SUM(qty) AS total FROM order_line GROUP BY i_id ORDER BY total DESC LIMIT 50",
		"INSERT INTO credit_card (cid, number, zip_code) VALUES (?, ?, ?)",
		"DELETE FROM toys WHERE toy_id=?",
		"UPDATE toys SET qty=? WHERE toy_id=?",
	}
	for _, src := range srcs {
		s1 := MustParse(src)
		s2, err := Parse(s1.String())
		if err != nil {
			t.Errorf("re-parse of %q failed: %v", s1.String(), err)
			continue
		}
		if s1.String() != s2.String() {
			t.Errorf("round trip changed:\n  %q\n  %q", s1.String(), s2.String())
		}
	}
}

func TestParamNumberingLeftToRight(t *testing.T) {
	s := MustParse("SELECT a FROM t WHERE b=? AND c=? AND d=?").(*SelectStmt)
	for i, p := range s.Where {
		if p.Right.Param != i {
			t.Errorf("pred %d param = %d", i, p.Right.Param)
		}
	}
}

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		cmp  int
	}{
		{IntVal(1), IntVal(2), -1},
		{IntVal(2), IntVal(2), 0},
		{IntVal(3), IntVal(2), 1},
		{FloatVal(1.5), IntVal(2), -1},
		{IntVal(2), FloatVal(1.5), 1},
		{StringVal("a"), StringVal("b"), -1},
		{StringVal("a"), StringVal("a"), 0},
		{Null(), IntVal(0), -1},
		{IntVal(0), Null(), 1},
		{Null(), Null(), 0},
		{IntVal(1), StringVal("1"), -1}, // numbers order before strings
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.cmp {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.cmp)
		}
	}
}

func TestValueCompareAntisymmetric(t *testing.T) {
	vals := func(x int64, f float64, s string, pick uint8) Value {
		switch pick % 4 {
		case 0:
			return IntVal(x)
		case 1:
			return FloatVal(f)
		case 2:
			return StringVal(s)
		default:
			return Null()
		}
	}
	f := func(x1, x2 int64, f1, f2 float64, s1, s2 string, p1, p2 uint8) bool {
		a, b := vals(x1, f1, s1, p1), vals(x2, f2, s2, p2)
		return a.Compare(b) == -b.Compare(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValueString(t *testing.T) {
	if got := StringVal("it's").String(); got != "'it''s'" {
		t.Errorf("got %s", got)
	}
	if got := IntVal(-5).String(); got != "-5" {
		t.Errorf("got %s", got)
	}
	if got := Null().String(); got != "NULL" {
		t.Errorf("got %s", got)
	}
}

func TestCompareOpHoldsAndFlip(t *testing.T) {
	ops := []CompareOp{OpEq, OpLt, OpLe, OpGt, OpGe}
	for _, op := range ops {
		for _, cmp := range []int{-1, 0, 1} {
			// a op b  ⟺  b flip(op) a; flipping the comparison negates cmp.
			if op.Holds(cmp) != op.Flip().Holds(-cmp) {
				t.Errorf("Flip inconsistent for %v cmp=%d", op, cmp)
			}
		}
	}
	if !OpLe.Holds(0) || !OpLe.Holds(-1) || OpLe.Holds(1) {
		t.Error("OpLe.Holds wrong")
	}
}

func TestParseCaseInsensitiveKeywords(t *testing.T) {
	s := MustParse("select a from t where b=? order by a limit 5").(*SelectStmt)
	if s.Limit != 5 || len(s.OrderBy) != 1 {
		t.Errorf("%+v", s)
	}
}

func TestStatementStringContainsKeywords(t *testing.T) {
	s := MustParse("SELECT a FROM t WHERE b=? AND c=? ORDER BY a LIMIT 3")
	str := s.String()
	for _, kw := range []string{"SELECT", "FROM", "WHERE", "AND", "ORDER BY", "LIMIT 3"} {
		if !strings.Contains(str, kw) {
			t.Errorf("String() = %q missing %q", str, kw)
		}
	}
}
