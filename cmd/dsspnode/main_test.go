package main

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"dssp/internal/httpapi"
)

// runMainEnv, when set, makes the test binary run the node's main on its
// arguments instead of the tests, so a test can watch the real process
// refuse a topology.
const runMainEnv = "DSSPNODE_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestParseHome: the node reads the trusted tier it fronts from the
// topology file, each partition's primary with its replicas nested under
// it, in partition order; a file naming a home tier it cannot front ends
// the process with exit 2 and the reason, before it listens.
func TestParseHome(t *testing.T) {
	ep := func(primary string, replicas ...string) httpapi.HomeEndpoint {
		return httpapi.HomeEndpoint{Primary: primary, Replicas: replicas}
	}
	cases := []struct {
		name, home string
		want       []httpapi.HomeEndpoint
		wantErr    string
	}{
		{name: "single home", home: `[{"primary": "http://p0:1"}]`, want: []httpapi.HomeEndpoint{ep("http://p0:1")}},
		{name: "one primary, two replicas", home: `[{"primary": "http://p0:1", "replicas": ["http://r1:1", "http://r2:1"]}]`,
			want: []httpapi.HomeEndpoint{ep("http://p0:1", "http://r1:1", "http://r2:1")}},
		{name: "two partitions, no replicas", home: `[{"primary": "http://p0:1"}, {"primary": "http://p1:1"}]`,
			want: []httpapi.HomeEndpoint{ep("http://p0:1"), ep("http://p1:1")}},
		{name: "aligned groups", home: `[{"primary": "http://p0:1", "replicas": ["http://r0:1"]}, {"primary": "http://p1:1", "replicas": ["http://r1:1", "http://r2:1"]}]`,
			want: []httpapi.HomeEndpoint{ep("http://p0:1", "http://r0:1"), ep("http://p1:1", "http://r1:1", "http://r2:1")}},
		{name: "only the second partition replicated", home: `[{"primary": "http://p0:1"}, {"primary": "http://p1:1", "replicas": ["http://r1:1"]}]`,
			want: []httpapi.HomeEndpoint{ep("http://p0:1"), ep("http://p1:1", "http://r1:1")}},
		// A replica group sits under its primary, so more groups than
		// primaries is a group with an empty primary.
		{name: "more groups than primaries", home: `[{"primary": "http://p0:1"}, {"replicas": ["http://r2:1"]}]`, wantErr: "empty URL"},
		{name: "empty home", home: `[]`, wantErr: "no home partition"},
		{name: "empty primary in list", home: `[{"primary": "http://p0:1"}, {"primary": ""}, {"primary": "http://p2:1"}]`, wantErr: "empty URL"},
		{name: "replica named twice", home: `[{"primary": "http://p0:1", "replicas": ["http://r0:1"]}, {"primary": "http://p1:1", "replicas": ["http://r0:1"]}]`,
			wantErr: "http://r0:1 named twice"},
	}
	dir := t.TempDir()
	for i, c := range cases {
		path := filepath.Join(dir, strconv.Itoa(i)+".json")
		file := `{"app": "toystore", "home": ` + c.home + `, "nodes": ["http://n0:2"]}`
		if err := os.WriteFile(path, []byte(file), 0o600); err != nil {
			t.Fatal(err)
		}
		if c.wantErr != "" {
			code, stderr := runMain(t, "-topology", path, "-as", "http://n0:2")
			if code != 2 || !strings.Contains(stderr, c.wantErr) {
				t.Errorf("%s: exit %d, stderr %q; want exit 2 and %q", c.name, code, stderr, c.wantErr)
			}
			continue
		}
		got, _, err := httpapi.LoadTopology(path, httpapi.KindNode, "http://n0:2")
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
		} else if !reflect.DeepEqual(got.Home, c.want) {
			t.Errorf("%s: got %+v, want %+v", c.name, got.Home, c.want)
		}
	}
}

// runMain runs the node's main in a child process with args and returns
// its exit code and what it wrote to stderr.
func runMain(t *testing.T, args ...string) (int, string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, stderr.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), stderr.String()
	}
	t.Fatalf("run main %v: %v", args, err)
	return 0, ""
}
