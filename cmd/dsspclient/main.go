// Command dsspclient is the trusted application side of the networked
// deployment: it seals a query or update with the application's key,
// sends it to a DSSP node, and prints the decrypted answer.
//
// Usage (with dssphome and dsspnode running):
//
//	dsspclient -app toystore -key secret -query Q2 -params 5
//	dsspclient -app toystore -key secret -update U1 -params 5
//	dsspclient -app toystore -key secret -query Q1 -params bear -exposure Q1=stmt
package main

import (
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strconv"
	"strings"

	"dssp/internal/apps"
	"dssp/internal/encrypt"
	"dssp/internal/httpapi"
	"dssp/internal/obs"
	"dssp/internal/template"
	"dssp/internal/wire"
)

func main() {
	appName := flag.String("app", "toystore", "application: toystore|auction|bboard|bookstore")
	node := flag.String("node", "http://localhost:8400", "DSSP node base URL")
	keyPhrase := flag.String("key", "", "key phrase shared with the home server (required)")
	queryID := flag.String("query", "", "query template ID to execute")
	updateID := flag.String("update", "", "update template ID to execute")
	paramsArg := flag.String("params", "", "comma-separated parameters (integers or strings; prefix s: forces a string)")
	exposures := flag.String("exposure", "", "comma-separated overrides, e.g. Q1=stmt,U1=template")
	timeout := flag.Duration("timeout", httpapi.DefaultTimeout, "end-to-end deadline for the request")
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil)).With("proc", "dsspclient")
	fatal := func(msg string, err error) {
		logger.Error(msg, "err", err)
		os.Exit(1)
	}
	if *keyPhrase == "" || (*queryID == "") == (*updateID == "") {
		logger.Error("-key and exactly one of -query/-update are required")
		os.Exit(2)
	}
	b, err := apps.ByName(*appName)
	if err != nil {
		fatal("bad application", err)
	}
	app := b.App()
	exps, err := parseExposures(*exposures)
	if err != nil {
		fatal("bad exposure override", err)
	}
	master := sha256.Sum256([]byte(*keyPhrase))
	codec := wire.NewCodec(app, encrypt.MustNewKeyring(master[:]), exps)
	client := httpapi.NewClient(codec, *node, nil)
	// A local span store captures each request's trace ID, so the log line
	// names the trace that the fleet's /v1/trace endpoints can resolve.
	store := obs.NewSpanStore(0)
	client.Tracer = obs.NewTracer(obs.NewRegistry(), obs.WallClock()).
		SetIdentity(obs.ProcClient, "").
		SetStore(store)
	lastTrace := func() string {
		if ids := store.TraceIDs(1); len(ids) == 1 {
			return ids[0]
		}
		return ""
	}
	params := parseParams(*paramsArg)
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	if *queryID != "" {
		t := app.Query(*queryID)
		if t == nil {
			logger.Error("unknown query template", "template", *queryID)
			os.Exit(1)
		}
		r, err := client.Query(ctx, t, params...)
		if err != nil {
			logger.Error("query failed", "template", *queryID, "trace", lastTrace(), "err", err)
			os.Exit(1)
		}
		logger.Info("query done", "template", *queryID, "trace", lastTrace(),
			"hit", r.Outcome.Hit, "rows", r.Outcome.Rows)
		fmt.Printf("%s  (cache hit: %v)\n", strings.Join(r.Result.Columns, "\t"), r.Outcome.Hit)
		for _, row := range r.Result.Rows {
			cells := make([]string, len(row))
			for i, v := range row {
				cells[i] = v.String()
			}
			fmt.Println(strings.Join(cells, "\t"))
		}
		return
	}
	t := app.Update(*updateID)
	if t == nil {
		logger.Error("unknown update template", "template", *updateID)
		os.Exit(1)
	}
	affected, invalidated, err := client.Update(ctx, t, params...)
	if err != nil {
		logger.Error("update failed", "template", *updateID, "trace", lastTrace(), "err", err)
		os.Exit(1)
	}
	logger.Info("update done", "template", *updateID, "trace", lastTrace(),
		"affected", affected, "invalidated", invalidated)
	fmt.Printf("rows affected: %d, cache entries invalidated: %d\n", affected, invalidated)
}

// parseParams turns "5,bear,7" into typed parameters: integers where the
// token parses as one, strings otherwise. An "s:" prefix forces a string
// — "s:15213" is the string "15213", for string columns holding numeric
// text (zip codes, card numbers).
func parseParams(s string) []interface{} {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := make([]interface{}, len(parts))
	for i, p := range parts {
		if rest, ok := strings.CutPrefix(p, "s:"); ok {
			out[i] = rest
		} else if n, err := strconv.ParseInt(p, 10, 64); err == nil {
			out[i] = n
		} else {
			out[i] = p
		}
	}
	return out
}

// parseExposures parses "Q1=stmt,U1=template" overrides.
func parseExposures(s string) (map[string]template.Exposure, error) {
	if s == "" {
		return nil, nil
	}
	out := make(map[string]template.Exposure)
	for _, kv := range strings.Split(s, ",") {
		id, level, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("dsspclient: bad exposure %q", kv)
		}
		switch level {
		case "blind":
			out[id] = template.ExpBlind
		case "template":
			out[id] = template.ExpTemplate
		case "stmt":
			out[id] = template.ExpStmt
		case "view":
			out[id] = template.ExpView
		default:
			return nil, fmt.Errorf("dsspclient: bad exposure level %q", level)
		}
	}
	return out, nil
}
