package httpapi

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// TestLoadTopology is the topology loader's table: what a file may say,
// what the validator refuses instead of dropping or guessing, and the role
// each kind of binary finds in it, a client's entry point included. A
// case without a kind runs as a node, and one without as as the file's
// first node.
func TestLoadTopology(t *testing.T) {
	const (
		one   = `"app": "toystore", "home": [{"primary": "http://p0:1"}], "nodes": ["http://n0:2"]`
		fleet = `"app": "toystore", "seed": 7,
		         "home": [{"primary": "http://p0:1", "replicas": ["http://r0:1"]},
		                  {"primary": "http://p1:1", "replicas": ["http://r1:1", "http://r2:1"]}],
		         "nodes": ["http://n1:8410", "http://n0:8400"], "router": "http://rt:8399"`
	)
	ep := func(primary string, replicas ...string) HomeEndpoint {
		return HomeEndpoint{Primary: primary, Replicas: replicas}
	}
	cases := []struct {
		name, file string
		kind       Kind
		as         string
		wantHome   []HomeEndpoint
		want       *Role
		entry      string
		wantErr    string
	}{
		{name: "single home", file: `{` + one + `}`,
			wantHome: []HomeEndpoint{ep("http://p0:1")}, want: &Role{Addr: ":2", Partition: -1, Replica: -1}},
		{name: "one primary, two replicas",
			file:     `{"app": "toystore", "home": [{"primary": "http://p0:1", "replicas": ["http://r1:1", "http://r2:1"]}], "nodes": ["http://n0:2"]}`,
			wantHome: []HomeEndpoint{ep("http://p0:1", "http://r1:1", "http://r2:1")}},
		{name: "two partitions, no replicas",
			file:     `{"app": "toystore", "home": [{"primary": "http://p0:1"}, {"primary": "http://p1:1"}], "nodes": ["http://n0:2"]}`,
			wantHome: []HomeEndpoint{ep("http://p0:1"), ep("http://p1:1")}},
		{name: "replica groups under their primaries", file: `{` + fleet + `}`,
			wantHome: []HomeEndpoint{ep("http://p0:1", "http://r0:1"), ep("http://p1:1", "http://r1:1", "http://r2:1")}},
		{name: "only the second partition replicated",
			file:     `{"app": "toystore", "home": [{"primary": "http://p0:1"}, {"primary": "http://p1:1", "replicas": ["http://r1:1"]}], "nodes": ["http://n0:2"]}`,
			wantHome: []HomeEndpoint{ep("http://p0:1"), ep("http://p1:1", "http://r1:1")}},
		// Misaligned replica groups cannot be written: a group sits under
		// its primary, and a group with no primary has an empty one.
		{name: "replicas without a primary", file: `{"app": "toystore", "home": [{"replicas": ["http://r1:1"]}], "nodes": ["http://n0:2"]}`,
			wantErr: "empty URL"},
		{name: "no home", file: `{"app": "toystore", "home": [], "nodes": ["http://n0:2"]}`, wantErr: "no home partition"},
		{name: "empty primary in list",
			file:    `{"app": "toystore", "home": [{"primary": "http://p0:1"}, {"primary": ""}, {"primary": "http://p2:1"}], "nodes": ["http://n0:2"]}`,
			wantErr: "empty URL"},

		{name: "fleet order kept", file: `{` + fleet + `}`, as: "http://n0:8400",
			want: &Role{Addr: ":8400", Partition: -1, Replica: -1, NodeID: "1"}},
		{name: "repeated node URL",
			file:    `{"app": "toystore", "home": [{"primary": "http://p0:1"}], "nodes": ["http://n0:2", "http://n1:2", "http://n0:2"], "router": "http://rt:3"}`,
			wantErr: "http://n0:2 named twice"},
		{name: "URL with spaces",
			file:    `{"app": "toystore", "home": [{"primary": "http://p0:1"}], "nodes": ["http://n0:2", " http://n0:2 "], "router": "http://rt:3"}`,
			wantErr: "want http://host:port"},
		{name: "no nodes", file: `{"app": "toystore", "home": [{"primary": "http://p0:1"}], "nodes": []}`, wantErr: "no node"},
		{name: "empty node URL",
			file:    `{"app": "toystore", "home": [{"primary": "http://p0:1"}], "nodes": ["http://n0:2", "", "http://n2:2"], "router": "http://rt:3"}`,
			wantErr: "empty URL"},
		{name: "trailing comma", file: `{"app": "toystore", "home": [{"primary": "http://p0:1"}], "nodes": ["http://n0:2",]}`,
			wantErr: "invalid character"},

		{name: "node URL equal to a home URL",
			file:    `{"app": "toystore", "home": [{"primary": "http://p0:1"}], "nodes": ["http://p0:1"]}`,
			wantErr: "http://p0:1 named twice"},
		{name: "replica URL equal to the router's", file: `{` + strings.Replace(fleet, `"http://r2:1"`, `"http://rt:8399"`, 1) + `}`,
			wantErr: "http://rt:8399 named twice"},
		{name: "router with one node", file: `{` + one + `, "router": "http://rt:3"}`, wantErr: "a router in front of one node"},
		{name: "two nodes without a router",
			file:    `{"app": "toystore", "home": [{"primary": "http://p0:1"}], "nodes": ["http://n0:2", "http://n1:2"]}`,
			wantErr: "2 nodes without a router"},
		{name: "unknown app", file: `{"app": "petstore", "home": [{"primary": "http://p0:1"}], "nodes": ["http://n0:2"]}`,
			wantErr: `unknown application "petstore"`},
		{name: "unknown field", file: `{` + one + `, "replicas": ["http://r0:1"]}`, wantErr: `unknown field "replicas"`},
		{name: "data after the object", file: `{` + one + `} {}`, wantErr: "data after"},
		{name: "URL with a path", file: `{"app": "toystore", "home": [{"primary": "http://p0:1/home"}], "nodes": ["http://n0:2"]}`,
			wantErr: "want http://host:port"},
		{name: "URL without a port", file: `{"app": "toystore", "home": [{"primary": "http://p0"}], "nodes": ["http://n0:2"]}`,
			wantErr: "want http://host:port"},

		{name: "primary", file: `{` + fleet + `}`, kind: KindHome, as: "http://p1:1",
			want: &Role{Addr: ":1", Partition: 1, Replica: -1}},
		{name: "replica", file: `{` + fleet + `}`, kind: KindHome, as: "http://r2:1",
			want: &Role{Addr: ":1", Partition: 1, Replica: 1}},
		{name: "router", file: `{` + fleet + `}`, kind: KindRouter,
			want: &Role{Addr: ":8399", Partition: -1, Replica: -1}},
		{name: "a spare node", file: `{` + fleet + `}`, as: "http://n2:8420",
			want: &Role{Addr: ":8420", Partition: -1, Replica: -1, NodeID: "http://n2:8420"}},
		{name: "home -as that is a node", file: `{` + fleet + `}`, kind: KindHome, as: "http://n1:8410",
			wantErr: "http://n1:8410 is the topology's node, not a home"},
		{name: "node -as that is a replica", file: `{` + fleet + `}`, as: "http://r0:1",
			wantErr: "http://r0:1 is the topology's home, not a node"},
		{name: "node -as that is the router", file: `{` + fleet + `}`, as: "http://rt:8399",
			wantErr: "is the topology's router, not a node"},
		{name: "home -as not listed", file: `{` + fleet + `}`, kind: KindHome, as: "http://p9:1",
			wantErr: "not in the topology"},
		{name: "no -as", file: `{` + fleet + `}`, kind: KindHome, wantErr: "empty URL"},
		{name: "router of a one-node topology", file: `{` + one + `}`, kind: KindRouter, wantErr: "no router"},
		{name: "a client enters at the router", file: `{` + fleet + `}`, kind: KindClient, want: &Role{}, entry: "http://rt:8399"},
		{name: "a client enters at the one node", file: `{` + one + `}`, kind: KindClient, want: &Role{}, entry: "http://n0:2"},
	}
	dir := t.TempDir()
	for i, c := range cases {
		kind, as := c.kind, c.as
		if kind == "" {
			kind = KindNode
		}
		if as == "" && kind == KindNode {
			as = "http://n0:2"
		}
		path := filepath.Join(dir, strconv.Itoa(i)+".json")
		if err := os.WriteFile(path, []byte(c.file), 0o600); err != nil {
			t.Fatal(err)
		}
		got, role, err := LoadTopology(path, kind, as)
		if c.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("%s: err = %v, want one containing %q", c.name, err, c.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if c.wantHome != nil && !reflect.DeepEqual(got.Home, c.wantHome) {
			t.Errorf("%s: home %+v, want %+v", c.name, got.Home, c.wantHome)
		}
		if c.want != nil && role != *c.want {
			t.Errorf("%s: role %+v, want %+v", c.name, role, *c.want)
		}
		if c.entry != "" && got.Entry() != c.entry {
			t.Errorf("%s: entry %s, want %s", c.name, got.Entry(), c.entry)
		}
	}
}

// TestLoadTopologyFile: a file Start's own Topology writes loads back as
// the same deployment, its seed included, and a missing file is an error
// naming it.
func TestLoadTopologyFile(t *testing.T) {
	f := startToystore(t, Spec{Nodes: 2, Partitions: 2, Replicas: 1}, nil)
	defer f.Close()
	want := f.Topology
	want.Seed = 3
	path := filepath.Join(t.TempDir(), "fleet.json")
	b, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o600); err != nil {
		t.Fatal(err)
	}
	got, role, err := LoadTopology(path, KindHome, want.Home[1].Replicas[0])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) || role.Partition != 1 || role.Replica != 0 {
		t.Errorf("loaded %+v as %+v, want %+v as partition 1's replica", got, role, want)
	}
	if _, _, err := LoadTopology(path+".missing", KindRouter, ""); err == nil || !strings.Contains(err.Error(), "fleet.json.missing") {
		t.Errorf("a missing file: %v", err)
	}
}
