package pipeline_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"dssp/internal/apps"
	"dssp/internal/cache"
	"dssp/internal/core"
	"dssp/internal/dssp"
	"dssp/internal/encrypt"
	"dssp/internal/homeserver"
	"dssp/internal/obs"
	"dssp/internal/pipeline"
	"dssp/internal/sqlparse"
	"dssp/internal/storage"
	"dssp/internal/template"
	"dssp/internal/wire"
)

// lendStack is one node's pipeline over toystore, with Q4 and U3 (a
// lookup and a deletion of customers by name) beside its templates and
// every query and update at stmt exposure, so the invalidation walk
// compares each update's parameters with each entry's: it caches Q2 of
// twelve toys and Q4 of eight customers. It batches per monitoring
// interval on a hand-stepped clock: flush runs the interval's flushes.
type lendStack struct {
	app    *template.App
	codec  *wire.Codec
	db     *storage.Database
	node   *dssp.Node
	p      *pipeline.Pipeline
	timers []func()
}

func newLendStack(t *testing.T) *lendStack {
	t.Helper()
	app := apps.Toystore()
	app.Queries = append(app.Queries, template.MustNew("Q4", app.Schema, "SELECT cust_id FROM customers WHERE cust_name=?"))
	app.Updates = append(app.Updates, template.MustNew("U3", app.Schema, "DELETE FROM customers WHERE cust_name=?"))
	exps := map[string]template.Exposure{}
	for _, ts := range [][]*template.Template{app.Queries, app.Updates} {
		for _, tm := range ts {
			exps[tm.ID] = template.ExpStmt
		}
	}
	s := &lendStack{app: app, codec: wire.NewCodec(app, encrypt.MustNewKeyring(make([]byte, encrypt.KeySize)), exps)}
	db := storage.NewDatabase(app.Schema)
	for i := int64(1); i <= 12; i++ {
		if err := db.Insert("toys", storage.Row{sqlparse.IntVal(i), sqlparse.StringVal("bear"), sqlparse.IntVal(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(1); i <= 8; i++ {
		if err := db.Insert("customers", storage.Row{sqlparse.IntVal(i), sqlparse.StringVal(fmt.Sprint("customer-", i))}); err != nil {
			t.Fatal(err)
		}
	}
	s.db = db
	s.node = dssp.NewNode(app, core.Analyze(app, core.DefaultOptions()), cache.Options{DecisionLog: 1 << 10})
	s.p = pipeline.New(s.node, pipeline.NewDirectTransport(homeserver.New(db, app, s.codec)), nil, pipeline.Options{
		MonitorInterval: time.Second,
		After:           func(_ time.Duration, fn func()) { s.timers = append(s.timers, fn) },
	})
	for i := int64(1); i <= 12; i++ {
		s.query(t, "Q2", sqlparse.IntVal(i))
	}
	for i := 1; i <= 8; i++ {
		s.query(t, "Q4", sqlparse.StringVal(fmt.Sprint("customer-", i)))
	}
	return s
}

func (s *lendStack) query(t *testing.T, id string, param sqlparse.Value) {
	t.Helper()
	sq, err := s.codec.SealQuery(s.app.Query(id), []sqlparse.Value{param})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.p.QuerySync(context.Background(), sq); err != nil {
		t.Fatal(err)
	}
}

func (s *lendStack) flush() {
	timers := s.timers
	s.timers = nil
	for _, fn := range timers {
		fn()
	}
}

// TestUpdateCallOwnsItsStatement: an update whose caller gives up before
// the interval's flush (UpdateSync and MonitorSync return on ctx.Done())
// and at once reuses what it lent — the client's scratch and parameter
// slice, or the frame the update was read from in place — still drops, at
// the flush, exactly the entries the same updates drop when each is the
// caller's to keep. So the pipeline's update call, the one keeper of an
// update past its call, reads only its own copy: one that read the
// caller's bytes at the flush would walk the cache with garbage and miss
// an invalidation, the paper's one safety property.
func TestUpdateCallOwnsItsStatement(t *testing.T) {
	ref, got := newLendStack(t), newLendStack(t)
	gaveUp, cancel := context.WithCancel(context.Background())
	cancel()
	var scratch wire.Scratch
	ids := got.app.IDs()
	for i, u := range []struct {
		id    string
		param sqlparse.Value
		form  string // how got's caller lends the update: "client", "frame" or "monitor"
	}{
		{"U1", sqlparse.IntVal(3), "client"},
		{"U3", sqlparse.StringVal("customer-2"), "client"},
		{"U1", sqlparse.IntVal(8), "frame"},
		{"U3", sqlparse.StringVal("customer-5"), "frame"},
		{"U1", sqlparse.IntVal(11), "monitor"},
		{"U3", sqlparse.StringVal("customer-7"), "monitor"},
	} {
		tm := ref.app.Update(u.id)
		owned, err := ref.codec.SealUpdate(tm, []sqlparse.Value{u.param})
		if err != nil {
			t.Fatal(err)
		}
		if u.form == "monitor" {
			_, err = ref.p.MonitorSync(gaveUp, owned, 0)
		} else {
			_, err = ref.p.UpdateSync(gaveUp, owned)
		}
		if err != context.Canceled {
			t.Fatalf("update %d: the reference returned %v before the flush, want %v", i, err, context.Canceled)
		}

		var scramble func()
		var su wire.SealedUpdate
		switch u.form {
		case "client":
			vals := []sqlparse.Value{u.param}
			if su, err = got.codec.LendUpdate(tm, vals, &scratch); err != nil {
				t.Fatal(err)
			}
			scramble = func() {
				xor(su.Opaque)
				vals[0] = sqlparse.StringVal("\xa5")
			}
		default:
			b := wire.AppendSealedUpdate(nil, &owned)
			if su, err = wire.ReadSealedUpdate(b, ids); err != nil {
				t.Fatal(err)
			}
			scramble = func() { xor(b) }
		}
		if u.form == "monitor" {
			_, err = got.p.MonitorSync(gaveUp, su, 0)
		} else {
			_, err = got.p.UpdateSync(gaveUp, su)
		}
		if err != context.Canceled {
			t.Fatalf("update %d: returned %v before the flush, want %v", i, err, context.Canceled)
		}
		scramble()
	}
	if len(ref.timers) == 0 || len(got.timers) == 0 {
		t.Fatal("no flush was armed: the updates were not batched, and the test proves nothing")
	}
	before := len(ref.node.Cache.Dump())
	ref.flush()
	got.flush()
	want := ref.node.Cache.Dump()
	if len(want) == 0 || len(want) == before {
		t.Fatalf("the updates dropped %d of %d entries: the test proves nothing", before-len(want), before)
	}
	if dump := got.node.Cache.Dump(); !reflect.DeepEqual(dump, want) {
		t.Fatalf("after the flush the cache holds\n %q\nwant\n %q", dump, want)
	}
	if got, want := decisions(got.node), decisions(ref.node); !reflect.DeepEqual(got, want) {
		t.Fatalf("the flush decided\n %+v\nwant\n %+v", got, want)
	}
}

// xor overwrites b as a sender reusing it would.
func xor(b []byte) {
	for i := range b {
		b[i] ^= 0xA5
	}
}

// decisions is n's decision log with the trace IDs, which differ from run
// to run, blanked.
func decisions(n *dssp.Node) []cache.Decision {
	ds := n.Cache.Decisions()
	for i := range ds {
		ds[i].Trace = obs.TraceID{}
	}
	return ds
}

// parkedTransport holds every query it is handed until run, then executes
// each through inner: it reads the query's payload only then, as a
// transport that resolves from a later event does.
type parkedTransport struct {
	inner  pipeline.Transport
	parked []func()
}

func (t *parkedTransport) ExecQuery(ctx context.Context, sq wire.SealedQuery, done func(pipeline.ExecQueryResult, error)) {
	t.parked = append(t.parked, func() { t.inner.ExecQuery(ctx, sq, done) })
}

func (t *parkedTransport) ExecUpdate(ctx context.Context, su wire.SealedUpdate, done func(pipeline.ExecUpdateResult, error)) {
	t.inner.ExecUpdate(ctx, su, done)
}

func (t *parkedTransport) run() {
	parked := t.parked
	t.parked = nil
	for _, fn := range parked {
		fn()
	}
}

// TestMissCallOwnsItsStatement: a miss whose caller gives up before the
// home answers (QuerySync returns on ctx.Done()) and at once reuses what it
// lent — the client's scratch and parameter slice, or the frame the query
// was read from in place — still leads its flight under its own key, so a
// later query of the same statement joins it, and still stores, when the
// home answers, exactly the entry the same query stores when it is the
// caller's to keep: its key, its parameters and its result. So the miss,
// which keeps its statement past its call, reads only its own copy of it
// (wire.SealedQuery.KeepIn), the payload it sends home included.
func TestMissCallOwnsItsStatement(t *testing.T) {
	ref, got := newLendStack(t), newLendStack(t)
	for _, s := range []*lendStack{ref, got} {
		for _, id := range []string{"Q2", "Q4"} {
			s.node.Cache.DropBuckets([]string{id})
		}
	}
	tr := &parkedTransport{inner: pipeline.NewDirectTransport(homeserver.New(got.db, got.app, got.codec))}
	p := pipeline.New(got.node, tr, nil, pipeline.Options{})
	gaveUp, cancel := context.WithCancel(context.Background())
	cancel()
	var scratch wire.Scratch
	ids := got.app.IDs()
	var joined []chan pipeline.QueryReply
	for i, q := range []struct {
		id    string
		param sqlparse.Value
		form  string // how got's caller lends the query: "client" or "frame"
	}{
		{"Q2", sqlparse.IntVal(3), "client"},
		{"Q4", sqlparse.StringVal("customer-2"), "client"},
		{"Q2", sqlparse.IntVal(8), "frame"},
		{"Q4", sqlparse.StringVal("customer-5"), "frame"},
	} {
		tm := ref.app.Query(q.id)
		owned, err := ref.codec.SealQuery(tm, []sqlparse.Value{q.param})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ref.p.QuerySync(context.Background(), owned); err != nil {
			t.Fatal(err)
		}

		var scramble func()
		var sq wire.SealedQuery
		switch q.form {
		case "client":
			vals := []sqlparse.Value{q.param}
			if sq, err = got.codec.LendQuery(tm, vals, &scratch); err != nil {
				t.Fatal(err)
			}
			scramble = func() {
				xor(sq.Opaque)
				xor(unsafe.Slice(unsafe.StringData(sq.Key), len(sq.Key)))
				vals[0] = sqlparse.StringVal("\xa5")
			}
		default:
			b := wire.AppendSealedQuery(nil, &owned, wire.WithTrace)
			if sq, err = wire.ReadSealedQuery(b, ids); err != nil {
				t.Fatal(err)
			}
			scramble = func() { xor(b) }
		}
		if _, err := p.QuerySync(gaveUp, sq); err != context.Canceled {
			t.Fatalf("query %d: returned %v before the home answered, want %v", i, err, context.Canceled)
		}
		scramble()
		reply := make(chan pipeline.QueryReply, 1)
		p.Query(context.Background(), owned, func(r pipeline.QueryReply, err error) {
			if err != nil {
				t.Error(err)
			}
			reply <- r
		})
		joined = append(joined, reply)
		if len(tr.parked) != i+1 {
			t.Fatalf("query %d: %d misses went home, want %d: the same statement did not join the flight its lent form leads", i, len(tr.parked), i+1)
		}
	}
	tr.run()
	for i, reply := range joined {
		if r := <-reply; !r.Coalesced {
			t.Fatalf("query %d: the joined miss was not coalesced", i)
		}
	}
	var all []string
	for _, q := range ref.app.Queries {
		all = append(all, q.ID)
	}
	want := ref.node.Cache.ExportBuckets(all)
	if len(want) != 4 {
		t.Fatalf("the reference holds %d entries, want 4", len(want))
	}
	if exported := got.node.Cache.ExportBuckets(all); !reflect.DeepEqual(exported, want) {
		t.Fatalf("after the home answered the cache holds\n %+v\nwant\n %+v", exported, want)
	}
}
