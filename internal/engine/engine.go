// Package engine executes the paper's SQL subset over the in-memory store:
// select-project-join queries with conjunctive arithmetic predicates,
// optional GROUP BY/aggregation, ORDER BY, and top-k (LIMIT), plus the
// three update kinds (insertion, deletion, modification).
//
// A statement is compiled once — a select into a Plan (Compile), an update
// into an Update (CompileUpdate) — and Run any number of times; ExecQuery
// and ExecUpdate do both for one-off callers.
//
// Execution is deterministic: scans follow insertion order and sorts are
// stable, so repeated evaluation of a query over an unchanged database
// yields an identical Result. The DSSP consistency property tests rely on
// this.
package engine

import (
	"slices"
	"sort"
	"strings"

	"dssp/internal/sqlparse"
	"dssp/internal/storage"
)

// Result is a materialized query result: the view cached by the DSSP.
//
// Its rows lie end to end in Vals, row-major, len(Columns) values each:
// row i is Vals[i*w:(i+1)*w] for w = len(Columns), and Row(i) returns it.
// A result of no columns has no rows.
//
// Ownership invariant: Vals never aliases storage, nor any scratch a later
// run reuses. Every execution path copies result values into one array made
// for this result and sized to it exactly (projection copies value structs
// out of base rows; aggregation rows are computed), and a sqlparse.Value
// points at nothing mutable: its string, like every Go string, is
// immutable. A Result is therefore immune to concurrent in-place mutation
// of the base tables it was computed from, and to the plan's next run —
// callers may hold, serialize, or seal a Result after releasing the
// database lock. The homeserver relies on this to seal query results
// outside its read lock. The one exception is a result the caller runs
// into itself (Plan.RunInto), which reuses the array it already has: the
// caller owns that array, and with it the duty not to lend it further than
// it keeps it.
type Result struct {
	// Columns is shared, so read it, never write it: by every result of
	// one Plan, which never changes it after Compile, and by every result
	// of one query template that a trusted client opens (wire.Codec keeps
	// each template's names once). A result whose names differ from its
	// template's has a copy of its own.
	Columns []string
	Vals    []sqlparse.Value

	// RowsScanned counts base-table rows visited while computing the
	// result; the simulator uses it to charge data-dependent service time.
	RowsScanned int
}

// Len returns the number of result rows.
func (r *Result) Len() int {
	if len(r.Columns) == 0 {
		return 0
	}
	return len(r.Vals) / len(r.Columns)
}

// Row returns row i, capped to its own length, so appending to it never
// writes into row i+1.
func (r *Result) Row(i int) []sqlparse.Value {
	w := len(r.Columns)
	return r.Vals[i*w : (i+1)*w : (i+1)*w]
}

// CloneInto makes cp, which the caller allocated and which it overwrites,
// a deep copy of the result whose values are vals, which the caller
// supplies, exactly as long as r's: one array, as Run builds them.
// Copying the value structs severs every mutable link between the copy and
// the original; the wire codec uses this to uphold the ownership invariant
// for plaintext (view-exposure) results, whose sealed form would otherwise
// alias the DSSP's cached object. The copy's Columns is columns when r's
// names are those — the names the caller shares among the results it
// makes, a template's at the codec — and a copy of r's otherwise, since
// the original's may be a plan's. A result of no values has nil Vals.
func (r *Result) CloneInto(cp *Result, columns []string, vals []sqlparse.Value) {
	if !slices.Equal(r.Columns, columns) {
		columns = append([]string(nil), r.Columns...)
	}
	*cp = Result{Columns: columns, RowsScanned: r.RowsScanned}
	if n := len(r.Vals); n > 0 {
		cp.Vals = vals[:n:n]
		copy(cp.Vals, r.Vals)
	}
}

// Fingerprint returns a canonical encoding of the result under multiset
// semantics: row order is ignored unless ordered is true. Two results are
// semantically equal iff their fingerprints are equal.
func (r *Result) Fingerprint(ordered bool) string {
	enc := make([]string, r.Len())
	for i := range enc {
		enc[i] = storage.Key(r.Row(i))
	}
	if !ordered {
		sort.Strings(enc)
	}
	return strings.Join(enc, "\n")
}

// ExecQuery evaluates a select statement with the given parameter values:
// Compile followed by Run. A caller that executes the same statement more
// than once — the home server, for every template of its application —
// compiles it once and keeps the Plan.
func ExecQuery(db *storage.Database, q *sqlparse.SelectStmt, params []sqlparse.Value) (*Result, error) {
	p, err := Compile(db.Schema, q)
	if err != nil {
		return nil, err
	}
	return p.Run(db, params)
}
