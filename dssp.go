// Package dssp is a reproduction of "Simultaneous Scalability and Security
// for Data-Intensive Web Applications" (Manjhi, Ailamaki, Maggs, Mowry,
// Olston, Tomasic; SIGMOD 2006).
//
// A Database Scalability Service Provider (DSSP) caches an application's
// query results and answers queries on its behalf. Because the DSSP is a
// third party, applications encrypt the data that passes through it — but
// encryption hides exactly the information the DSSP needs for precise
// cache invalidation, so security trades off against scalability. The
// paper's contribution, implemented in this module, is a static analysis
// over an application's query/update templates that identifies data which
// can be encrypted at zero scalability cost, plus the
// scalability-conscious security design methodology built on it.
//
// This package is the public facade. It re-exports the pieces a user
// composes:
//
//   - schema and template definition (NewSchema, NewTemplate, App),
//   - the static analysis and methodology (Analyze, Methodology),
//   - a runnable DSSP system over an in-memory relational engine
//     (NewSystem), and
//   - the paper's benchmark applications and scalability experiments
//     (Bookstore, Auction, BBoard, Simulate, MeasureScalability).
//
// The architecture, SQL subset, invalidation strategies, and experiment
// setup follow the paper; see DESIGN.md for the system inventory and
// EXPERIMENTS.md for measured results.
package dssp

import (
	"math/rand"

	"dssp/internal/apps"
	"dssp/internal/cache"
	"dssp/internal/core"
	"dssp/internal/dssp"
	"dssp/internal/encrypt"
	"dssp/internal/engine"
	"dssp/internal/metrics"
	"dssp/internal/obs"
	"dssp/internal/schema"
	"dssp/internal/simrun"
	"dssp/internal/sqlparse"
	"dssp/internal/storage"
	"dssp/internal/template"
	"dssp/internal/wire"
	"dssp/internal/workload"
)

// Re-exported core types. See the internal packages for full
// documentation.
type (
	// Schema describes relations, typed attributes, and integrity
	// constraints (primary and foreign keys).
	Schema = schema.Schema
	// Column is one attribute of a relation.
	Column = schema.Column
	// App is an application's fixed sets of query and update templates.
	App = template.App
	// Template is one parameterized query or update with its static
	// classification.
	Template = template.Template
	// Exposure is an information exposure level (blind < template < stmt
	// < view); everything not exposed to the DSSP is encrypted.
	Exposure = template.Exposure
	// Analysis is the IPM characterization of every update/query pair.
	Analysis = core.Analysis
	// PairAnalysis characterizes one update/query template pair.
	PairAnalysis = core.PairAnalysis
	// Methodology is the three-step scalability-conscious security design
	// methodology of §3.1.
	Methodology = core.Methodology
	// MethodologyResult reports initial and final exposure assignments.
	MethodologyResult = core.MethodologyResult
	// ExposureAssignment maps template IDs to exposure levels.
	ExposureAssignment = core.ExposureAssignment
	// Value is a dynamically typed SQL value.
	Value = sqlparse.Value
	// Result is a materialized query result.
	Result = engine.Result
	// Benchmark is a runnable benchmark application.
	Benchmark = workload.Benchmark
	// SimConfig parameterizes a simulated scalability run.
	SimConfig = simrun.Config
	// SimResult summarizes a simulated run.
	SimResult = simrun.Result
	// SLA is the responsiveness criterion for scalability measurements.
	SLA = metrics.SLA
	// MetricsSnapshot is a point-in-time view of every counter, gauge, and
	// latency histogram a system (or simulated run) has recorded.
	MetricsSnapshot = obs.Snapshot
)

// Exposure levels, least exposed (most encrypted) first.
const (
	ExpBlind    = template.ExpBlind
	ExpTemplate = template.ExpTemplate
	ExpStmt     = template.ExpStmt
	ExpView     = template.ExpView
)

// Column types.
const (
	TInt    = schema.TInt
	TFloat  = schema.TFloat
	TString = schema.TString
)

// KeySize is the master key size for NewSystem.
const KeySize = encrypt.KeySize

// Int, Float, and String construct SQL values for rows and parameters.
func Int(v int64) Value     { return sqlparse.IntVal(v) }
func Float(v float64) Value { return sqlparse.FloatVal(v) }
func String(v string) Value { return sqlparse.StringVal(v) }

// NewSchema returns an empty schema.
func NewSchema() *Schema { return schema.New() }

// NewTemplate parses, validates, and classifies one template against a
// schema.
func NewTemplate(id string, s *Schema, sql string) (*Template, error) {
	return template.New(id, s, sql)
}

// Analyze characterizes every update/query template pair of the app with
// the paper's default options (integrity constraints enabled).
func Analyze(app *App) *Analysis {
	return core.Analyze(app, core.DefaultOptions())
}

// MaxExposures returns the fully exposed assignment (no encryption).
func MaxExposures(app *App) ExposureAssignment { return core.MaxExposures(app) }

// EncryptedResultCount is the Figure 3 security metric: the number of
// query templates whose results are encrypted under the assignment.
func EncryptedResultCount(app *App, e ExposureAssignment) int {
	return core.EncryptedResultCount(app, e)
}

// System is a complete single-node DSSP deployment: a trusted client
// codec, the untrusted caching node, and the home server with the master
// database — the Figure 1 architecture in one process.
type System struct {
	App    *App
	Client *dssp.Client
	DB     *storage.Database
}

// NewSystem assembles a DSSP system for an application. masterKey (KeySize
// bytes) stays on the trusted side; exposures may be nil for full
// exposure. The master database starts empty; use Populate or Execute
// insertions to fill it.
func NewSystem(app *App, masterKey []byte, exposures ExposureAssignment) (*System, error) {
	kr, err := encrypt.NewKeyring(masterKey)
	if err != nil {
		return nil, err
	}
	db := storage.NewDatabase(app.Schema)
	return &System{App: app, Client: dssp.NewClient(app, wire.NewCodec(app, kr, exposures), db), DB: db}, nil
}

// Metrics returns a snapshot of the system's observability registry:
// per-template cache hit/miss/invalidation counters, per-stage latency
// histograms, and home-server execution counts.
func (s *System) Metrics() MetricsSnapshot {
	return s.Client.Node.Cache.Obs().Snapshot()
}

// Query runs a query template end to end (cache, then home server on a
// miss) and returns the plaintext result.
func (s *System) Query(templateID string, params ...interface{}) (*Result, error) {
	t := s.App.Query(templateID)
	if t == nil {
		return nil, errUnknownTemplate(templateID)
	}
	r, err := s.Client.Query(t, params...)
	if err != nil {
		return nil, err
	}
	return r.Result, nil
}

// QueryOutcome runs a query and additionally reports whether it was a
// cache hit.
func (s *System) QueryOutcome(templateID string, params ...interface{}) (*Result, bool, error) {
	t := s.App.Query(templateID)
	if t == nil {
		return nil, false, errUnknownTemplate(templateID)
	}
	r, err := s.Client.Query(t, params...)
	if err != nil {
		return nil, false, err
	}
	return r.Result, r.Outcome.Hit, nil
}

// Update routes an update through the DSSP to the home server and returns
// (rows affected, cache entries invalidated).
func (s *System) Update(templateID string, params ...interface{}) (int, int, error) {
	t := s.App.Update(templateID)
	if t == nil {
		return 0, 0, errUnknownTemplate(templateID)
	}
	return s.Client.Update(t, params...)
}

// CacheStats reports the DSSP node's counters.
func (s *System) CacheStats() cache.Stats { return s.Client.Node.Cache.Stats() }

type unknownTemplateError string

func (e unknownTemplateError) Error() string { return "dssp: unknown template " + string(e) }

func errUnknownTemplate(id string) error { return unknownTemplateError(id) }

// Toystore returns the paper's running example application (Table 3).
func Toystore() *App { return apps.Toystore() }

// SimpleToystore returns the Table 1 example application.
func SimpleToystore() *App { return apps.SimpleToystore() }

// Bookstore returns the TPC-W-like benchmark (§5.1) with Zipf book
// popularity.
func Bookstore() Benchmark { return apps.NewBookstore() }

// Auction returns the RUBiS-like benchmark (§5.1).
func Auction() Benchmark { return apps.NewAuction() }

// BBoard returns the RUBBoS-like benchmark (§5.1).
func BBoard() Benchmark { return apps.NewBBoard() }

// PopulateBenchmark fills a database with a benchmark's initial data.
func PopulateBenchmark(b Benchmark, db *storage.Database, seed int64) error {
	return b.Populate(db, rand.New(rand.NewSource(seed)))
}

// DefaultSimConfig returns a §5.2-faithful simulation configuration.
func DefaultSimConfig(b Benchmark, users int) SimConfig {
	return simrun.DefaultConfig(b, users)
}

// UniformExposures assigns one exposure level to every template of the
// app (capped at stmt for updates): the Figure 8 configurations.
func UniformExposures(app *App, e Exposure) map[string]Exposure {
	return simrun.UniformExposures(app, e)
}

// Simulate runs one deterministic scalability trial.
func Simulate(cfg SimConfig) (*SimResult, error) { return simrun.Simulate(cfg) }

// DefaultSLA is the paper's criterion: 90th-percentile response time
// under two seconds.
func DefaultSLA() SLA { return metrics.DefaultSLA() }

// MeasureScalability finds the maximum number of concurrent users (up to
// maxUsers) for which cfg meets the SLA.
func MeasureScalability(cfg SimConfig, sla SLA, maxUsers int) (int, error) {
	users, _, err := simrun.MaxUsers(cfg, sla, maxUsers)
	return users, err
}
