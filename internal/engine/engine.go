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
// run reuses. Every execution path copies result rows into one array made
// for this result and sized to it exactly (projection copies value structs
// out of base rows; aggregation rows are computed), and a sqlparse.Value
// points at nothing mutable: its string, like every Go string, is
// immutable. A Result is therefore immune to concurrent in-place mutation
// of the base tables it was computed from, and to the plan's next run —
// callers may hold, serialize, or seal a Result after releasing the
// database lock. The homeserver relies on this to seal query results
// outside its read lock. The rows of one result share that one backing
// array; each is capped to its own length, so appending to a row never
// writes into its neighbour.
type Result struct {
	// Columns is shared by every result of one Plan, which never changes
	// it after Compile: read it, never write it. (A Clone has its own.)
	Columns []string
	Rows    [][]sqlparse.Value

	// RowsScanned counts base-table rows visited while computing the
	// result; the simulator uses it to charge data-dependent service time.
	RowsScanned int
}

// Len returns the number of result rows.
func (r *Result) Len() int { return len(r.Rows) }

// Clone returns a deep copy of the result, built the way Run builds one:
// the rows in one exactly-sized array, whatever their number. Copying the
// value structs severs every mutable link between the copy and the
// original; the wire codec uses this to uphold the ownership invariant for
// plaintext (view-exposure) results, whose sealed form would otherwise
// alias the DSSP's cached object. Columns is copied too: the clone is
// handed to a client, who may do with it as it likes, and the original's
// Columns may be a plan's.
func (r *Result) Clone() *Result {
	cp := new(Result)
	r.CloneInto(cp)
	return cp
}

// CloneInto is Clone into a result the caller allocated, which it
// overwrites.
func (r *Result) CloneInto(cp *Result) {
	*cp = Result{
		Columns:     append([]string(nil), r.Columns...),
		RowsScanned: r.RowsScanned,
	}
	if r.Rows == nil {
		return
	}
	nvals := 0
	for _, row := range r.Rows {
		nvals += len(row)
	}
	slab := make([]sqlparse.Value, nvals)
	cp.Rows = make([][]sqlparse.Value, len(r.Rows))
	for i, row := range r.Rows {
		n := copy(slab, row)
		cp.Rows[i], slab = slab[:n:n], slab[n:]
	}
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
