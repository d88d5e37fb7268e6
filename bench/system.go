package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"time"

	"dssp/internal/apps"
	"dssp/internal/cache"
	"dssp/internal/core"
	"dssp/internal/dssp"
	"dssp/internal/encrypt"
	"dssp/internal/homeserver"
	"dssp/internal/httpapi"
	"dssp/internal/obs"
	"dssp/internal/pipeline"
	"dssp/internal/sqlparse"
	"dssp/internal/storage"
	"dssp/internal/template"
	"dssp/internal/wire"
)

// fleetNodes is the size of the routed fleet fleet_browse boots.
const fleetNodes = 2

// client is the trusted, application-side driver of a system under test:
// one statement in, one reply out, closed loop.
type client interface {
	Query(t *template.Template, args []interface{}) (*dssp.QueryResult, error)
	Update(t *template.Template, args []interface{}) error
}

// boundOp is a script op resolved against one repetition's freshly built
// application, with parameters boxed the way the product clients take
// them — done during set-up so the timed loop generates nothing.
type boundOp struct {
	t     *template.Template
	vals  []sqlparse.Value // the script's parameters
	args  []interface{}    // the same, boxed for the product clients
	query bool
}

// setupTimes are the wall-clock phases of one repetition's set-up; build
// is whatever of it is neither analysis, populate nor warm-up.
type setupTimes struct {
	analyze, build, populate time.Duration
}

// sut is one freshly built system under test plus the handles the bench
// reads counters from. Everything in it is product code except client
// (a two-line adapter) and, in a traced build, the decorators around it.
type sut struct {
	app       *template.App
	exposures core.ExposureAssignment
	keyring   *encrypt.Keyring
	codec     *wire.Codec
	db        *storage.Database
	home      *homeserver.Server
	nodes     []*dssp.Node
	regs      []*obs.Registry       // every registry the deployment's processes own
	router    *obs.Registry         // the router's registry (fleet only)
	hops      []*tracedRoundTripper // the fleet's hops, front to back (traced builds only)
	client    client
	times     setupTimes
	stop      func() error
}

// masterKey derives the run's key from its seed, so ciphertexts — and
// with them every sealed cache key — repeat across repetitions.
func masterKey(seed int64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(seed))
	k := sha256.Sum256(append([]byte("dssp-bench-key"), b[:]...))
	return k[:]
}

// buildSystem assembles one fresh system for a workload: schema →
// analysis → keyring → populate → boot. tr, when non-nil, installs the
// bench's timing decorators at every layer boundary reachable from
// outside the product packages; nil builds the untraced system the
// end-to-end numbers are taken on.
func buildSystem(w *workloadDef, seed int64, tr *tracer) (*sut, error) {
	b := apps.NewBookstore()
	app := b.App()

	t0 := time.Now()
	mr := core.Methodology{App: app, Compulsory: b.Compulsory(), Opts: core.DefaultOptions()}.Run()
	tAnalyze := time.Since(t0)

	exps := mr.Final
	if w.view {
		exps = core.ExposureAssignment{}
		for _, q := range app.Queries {
			exps[q.ID] = template.ExpView
		}
		for _, u := range app.Updates {
			exps[u.ID] = template.ExpStmt
		}
	}
	kr, err := encrypt.NewKeyring(masterKey(seed))
	if err != nil {
		return nil, err
	}
	s := &sut{app: app, exposures: exps, keyring: kr, codec: wire.NewCodec(app, kr, exps), db: storage.NewDatabase(app.Schema)}

	t0 = time.Now()
	if err := b.Populate(s.db, rand.New(rand.NewSource(seed))); err != nil {
		return nil, fmt.Errorf("populate: %w", err)
	}
	tPopulate := time.Since(t0)

	s.home = homeserver.New(s.db, app, s.codec)
	if w.fleet {
		err = s.bootFleet(mr.Analysis, tr)
	} else {
		s.bootEmbed(w, mr.Analysis, tr)
	}
	if err != nil {
		return nil, err
	}
	s.times = setupTimes{analyze: tAnalyze, populate: tPopulate}
	return s, nil
}

// bootEmbed is the dssp.NewSystem assembly — one registry, an in-process
// client over a direct transport — with the cache capacity the workload
// asks for.
func (s *sut) bootEmbed(w *workloadDef, analysis *core.Analysis, tr *tracer) {
	reg := obs.NewRegistry()
	node := dssp.NewNode(s.app, analysis, cache.Options{Obs: reg, Capacity: w.capacity})
	s.home.SetObs(reg, obs.WallClock())
	s.nodes = []*dssp.Node{node}
	s.regs = []*obs.Registry{reg}
	s.stop = func() error { return nil }
	otr := obs.NewTracer(reg, obs.WallClock())
	if tr == nil {
		s.client = embedClient{&dssp.Client{Codec: s.codec, Node: node, Home: s.home, Tracer: otr}}
		return
	}
	s.client = &tracedEmbedClient{
		codec: s.codec,
		tr:    tr,
		pipe: pipeline.New(tracedCache{node, tr},
			tracedTransport{pipeline.NewDirectTransport(s.home), tr}, otr, pipeline.Options{}),
	}
}

// embedClient adapts dssp.Client to the bench's client interface.
type embedClient struct{ c *dssp.Client }

func (e embedClient) Query(t *template.Template, args []interface{}) (*dssp.QueryResult, error) {
	return e.c.Query(t, args...)
}

func (e embedClient) Update(t *template.Template, args []interface{}) error {
	_, _, err := e.c.Update(t, args...)
	return err
}

// bootFleet boots the deployment the binaries run, in this process:
// router → fleetNodes nodes → home, each behind its own loopback listener,
// each hop with its own keep-alive HTTP client.
func (s *sut) bootFleet(analysis *core.Analysis, tr *tracer) error {
	var servers []*http.Server
	var served []chan error
	var transports []*http.Transport
	s.stop = func() error {
		for _, t := range transports {
			t.CloseIdleConnections()
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		var first error
		// Front to back, so no hop is cut off under an in-flight request.
		for i := len(servers) - 1; i >= 0; i-- {
			if err := servers[i].Shutdown(ctx); err != nil && first == nil {
				first = err
			}
			if err := <-served[i]; !errors.Is(err, http.ErrServerClosed) && first == nil {
				first = err
			}
		}
		return first
	}
	serve := func(h http.Handler, sp spanKind) (string, error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", err
		}
		if tr != nil {
			h = tracedHandler{h, tr, sp}
		}
		srv := &http.Server{Handler: h}
		done := make(chan error, 1)
		go func() { done <- srv.Serve(ln) }()
		servers = append(servers, srv)
		served = append(served, done)
		return "http://" + ln.Addr().String(), nil
	}
	hop := func(sp spanKind) *http.Client {
		t := &http.Transport{MaxIdleConnsPerHost: 2}
		transports = append(transports, t)
		c := &http.Client{Timeout: httpapi.DefaultTimeout, Transport: t}
		if tr != nil {
			rt := &tracedRoundTripper{inner: t, tr: tr, sp: sp}
			s.hops = append(s.hops, rt)
			c.Transport = rt
		}
		return c
	}

	homeURL, err := serve(httpapi.HomeHandler(s.home), spHomeHandler)
	if err != nil {
		return err
	}
	s.regs = append(s.regs, s.home.Obs())
	urls := make([]string, fleetNodes)
	for i := range urls {
		node := dssp.NewNode(s.app, analysis, cache.Options{})
		ns := httpapi.NewNodeServerWithOptions(node, homeURL, hop(spNodeHomeRTT), httpapi.NodeOptions{NodeID: strconv.Itoa(i)})
		if urls[i], err = serve(ns.Handler(), spNodeHandler); err != nil {
			_ = s.stop()
			return err
		}
		s.nodes = append(s.nodes, node)
		s.regs = append(s.regs, ns.Reg)
	}
	rs := httpapi.NewRouterServer(analysis, urls, httpapi.RouterOptions{Client: hop(spRouterNodeRTT)})
	routerURL, err := serve(rs.Handler(), spRouterHandler)
	if err != nil {
		_ = s.stop()
		return err
	}
	s.router = rs.Reg
	s.regs = append(s.regs, rs.Reg)

	hc := httpapi.NewClient(s.codec, routerURL, hop(spClientRouterRTT))
	creg := obs.NewRegistry()
	hc.Tracer = obs.NewTracer(creg, obs.WallClock()).SetIdentity(obs.ProcClient, "").SetStore(obs.NewSpanStore(0))
	s.regs = append(s.regs, creg)
	s.client = fleetClient{hc}
	if tr != nil {
		s.client = tracedClient{s.client, tr}
	}
	return nil
}

// fleetClient adapts httpapi.Client to the bench's client interface.
type fleetClient struct{ c *httpapi.Client }

func (f fleetClient) Query(t *template.Template, args []interface{}) (*dssp.QueryResult, error) {
	return f.c.Query(context.Background(), t, args...)
}

func (f fleetClient) Update(t *template.Template, args []interface{}) error {
	_, _, err := f.c.Update(context.Background(), t, args...)
	return err
}

// bind resolves a script against this system's application.
func (s *sut) bind(ops []scriptOp) ([]boundOp, error) {
	out := make([]boundOp, len(ops))
	for i, op := range ops {
		t := s.app.Query(op.ID)
		if !op.Query {
			t = s.app.Update(op.ID)
		}
		if t == nil {
			return nil, fmt.Errorf("script op %d: unknown template %s", i, op.ID)
		}
		args := make([]interface{}, len(op.Params))
		for j, v := range op.Params {
			args[j] = v
		}
		out[i] = boundOp{t: t, vals: op.Params, args: args, query: op.Query}
	}
	return out, nil
}

// counters is every count the bench reads at a script boundary, summed
// over the deployment's nodes and registries.
type counters struct {
	cache     cache.Stats
	homeExecs int
	coalesced int64
	retries   int64
	fanNodes  time.Duration // router fan-out histogram sum: n nodes = n µs
	fanCount  int64
	fanSkip   int64
	nodeLoad  []int // lookups served per node
}

func (s *sut) counters() counters {
	c := counters{homeExecs: s.home.QueriesServed() + s.home.UpdatesApplied()}
	for _, n := range s.nodes {
		st := n.Cache.Stats()
		c.nodeLoad = append(c.nodeLoad, st.Hits+st.Misses)
		c.cache = addStats(c.cache, st, 1)
	}
	for _, r := range s.regs {
		c.coalesced += r.Counter(obs.MCoalescedMisses).Value()
		c.retries += r.Counter(obs.MHTTPRetries).Value()
	}
	if s.router != nil {
		c.retries += s.router.Counter(obs.MRouterQueryRetries).Value()
		h := s.router.Histogram(obs.MRouterFanoutNodes)
		c.fanNodes, c.fanCount = h.Sum(), h.Count()
		c.fanSkip = s.router.Counter(obs.MRouterFanoutSkipped).Value()
	}
	return c
}

// addStats returns a + sign×b, field by field.
func addStats(a, b cache.Stats, sign int) cache.Stats {
	a.Hits += sign * b.Hits
	a.Misses += sign * b.Misses
	a.Stores += sign * b.Stores
	a.Invalidations += sign * b.Invalidations
	a.Evictions += sign * b.Evictions
	a.UpdatesSeen += sign * b.UpdatesSeen
	a.BucketsVisited += sign * b.BucketsVisited
	a.BucketsSkipped += sign * b.BucketsSkipped
	a.BucketWalks += sign * b.BucketWalks
	return a
}

// since returns what was added to the counters after the snapshot then.
func (c counters) since(then counters) counters {
	d := counters{
		cache:     addStats(c.cache, then.cache, -1),
		homeExecs: c.homeExecs - then.homeExecs,
		coalesced: c.coalesced - then.coalesced,
		retries:   c.retries - then.retries,
		fanNodes:  c.fanNodes - then.fanNodes,
		fanCount:  c.fanCount - then.fanCount,
		fanSkip:   c.fanSkip - then.fanSkip,
		nodeLoad:  make([]int, len(c.nodeLoad)),
	}
	for i := range d.nodeLoad {
		d.nodeLoad[i] = c.nodeLoad[i] - then.nodeLoad[i]
	}
	return d
}

// entries is the number of cached results across the deployment.
func (s *sut) entries() int {
	n := 0
	for _, node := range s.nodes {
		n += node.Cache.Len()
	}
	return n
}

// rowsTotal is the master database's size in rows.
func (s *sut) rowsTotal() int {
	n := 0
	for _, t := range s.app.Schema.Tables() {
		n += s.db.Table(t.Name).Len()
	}
	return n
}
