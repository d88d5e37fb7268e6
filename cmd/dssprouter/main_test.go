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

// runMainEnv, when set, makes the test binary run the router's main on its
// arguments instead of the tests, so a test can watch the real process
// refuse a topology.
const runMainEnv = "DSSPROUTER_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestParseNodes: the router fronts the topology file's nodes in the
// file's order, because ownership is derived from a node's position; a
// node list it cannot front ends the process with exit 2 and the reason,
// before it listens.
func TestParseNodes(t *testing.T) {
	cases := []struct {
		name, nodes string
		want        []string
		wantErr     string
	}{
		{name: "two nodes", nodes: `["http://n0:2", "http://n1:2"]`, want: []string{"http://n0:2", "http://n1:2"}},
		{name: "fleet order kept", nodes: `["http://n1:2", "http://n0:2"]`, want: []string{"http://n1:2", "http://n0:2"}},
		{name: "repeated URL", nodes: `["http://n0:2", "http://n1:2", "http://n0:2"]`, wantErr: "http://n0:2 named twice"},
		{name: "URL with spaces", nodes: `["http://n0:2", " http://n0:2 "]`, wantErr: "want http://host:port"},
		{name: "no nodes", nodes: `[]`, wantErr: "no node"},
		{name: "empty URL in list", nodes: `["http://n0:2", "", "http://n2:2"]`, wantErr: "empty URL"},
		{name: "trailing comma", nodes: `["http://n0:2",]`, wantErr: "invalid character"},
		{name: "one node", nodes: `["http://n0:2"]`, wantErr: "a router in front of one node"},
	}
	dir := t.TempDir()
	for i, c := range cases {
		path := filepath.Join(dir, strconv.Itoa(i)+".json")
		file := `{"app": "toystore", "home": [{"primary": "http://p0:1"}], "nodes": ` + c.nodes + `, "router": "http://rt:3"}`
		if err := os.WriteFile(path, []byte(file), 0o600); err != nil {
			t.Fatal(err)
		}
		if c.wantErr != "" {
			code, stderr := runMain(t, "-topology", path)
			if code != 2 || !strings.Contains(stderr, c.wantErr) {
				t.Errorf("%s: exit %d, stderr %q; want exit 2 and %q", c.name, code, stderr, c.wantErr)
			}
			continue
		}
		got, _, err := httpapi.LoadTopology(path, httpapi.KindRouter, "")
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
		} else if !reflect.DeepEqual(got.Nodes, c.want) {
			t.Errorf("%s: got %q, want %q", c.name, got.Nodes, c.want)
		}
	}
}

// runMain runs the router's main in a child process with args and returns
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
