// Package engine executes the paper's SQL subset over the in-memory store:
// select-project-join queries with conjunctive arithmetic predicates,
// optional GROUP BY/aggregation, ORDER BY, and top-k (LIMIT), plus the
// three update kinds (insertion, deletion, modification).
//
// A select statement is compiled once into a Plan (Compile) and executed
// any number of times (Plan.Run); ExecQuery does both for one-off callers.
//
// Execution is deterministic: scans follow insertion order and sorts are
// stable, so repeated evaluation of a query over an unchanged database
// yields an identical Result. The DSSP consistency property tests rely on
// this.
package engine

import (
	"sort"
	"strings"

	"dssp/internal/sqlparse"
	"dssp/internal/storage"
)

// Result is a materialized query result: the view cached by the DSSP.
//
// Ownership invariant: Rows never aliases storage, nor any scratch a later
// run reuses. Every execution path builds result rows in arrays allocated
// for this result (projection copies value structs out of base rows;
// aggregation rows are computed), and sqlparse.Value is a pure value type
// with no pointers or slices. A Result is therefore immune to concurrent
// in-place mutation of the base tables it was computed from — callers may
// hold, serialize, or seal a Result after releasing the database lock. The
// homeserver relies on this to seal query results outside its read lock.
// Rows of one result may share a backing array; each is capped to its own
// length, so appending to a row never writes into its neighbour.
type Result struct {
	// Columns is shared by every result of one Plan: read it, never
	// write it.
	Columns []string
	Rows    [][]sqlparse.Value

	// RowsScanned counts base-table rows visited while computing the
	// result; the simulator uses it to charge data-dependent service time.
	RowsScanned int
}

// Len returns the number of result rows.
func (r *Result) Len() int { return len(r.Rows) }

// Clone returns a deep copy of the result. sqlparse.Value is a pure value
// type, so copying each row slice severs every mutable link between the
// copy and the original; the wire codec uses this to uphold the ownership
// invariant for plaintext (view-exposure) results, whose sealed form would
// otherwise alias the DSSP's cached object.
func (r *Result) Clone() *Result {
	cp := &Result{
		Columns:     append([]string(nil), r.Columns...),
		Rows:        make([][]sqlparse.Value, len(r.Rows)),
		RowsScanned: r.RowsScanned,
	}
	for i, row := range r.Rows {
		cp.Rows[i] = append([]sqlparse.Value(nil), row...)
	}
	return cp
}

// Fingerprint returns a canonical encoding of the result under multiset
// semantics: row order is ignored unless ordered is true. Two results are
// semantically equal iff their fingerprints are equal.
func (r *Result) Fingerprint(ordered bool) string {
	enc := make([]string, len(r.Rows))
	for i, row := range r.Rows {
		enc[i] = storage.Key(row)
	}
	if !ordered {
		sort.Strings(enc)
	}
	return strings.Join(enc, "\n")
}

// ColumnIndex returns the ordinal of the named output column, or -1.
func (r *Result) ColumnIndex(name string) int {
	for i, c := range r.Columns {
		if c == name {
			return i
		}
	}
	return -1
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
