package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/url"
	"os"
	"slices"
	"strconv"

	"dssp/internal/apps"
)

// Topology is the one description of an HTTP deployment of the paper's
// Figure 1, every process named by its base URL: the application, the
// seed every home-tier database is populated from, the trusted tier's
// partitions in partition order (each primary with its read replicas), the
// DSSP nodes in ring order, and the shard router in front of them when
// there are several. Start builds one from the listeners it opens (Seed
// stays 0: Spec.NewDB populates); dssphome, dsspnode, dssprouter and
// dsspclient read one from a file and find their role in it
// (LoadTopology).
type Topology struct {
	App    string         `json:"app"`
	Seed   int64          `json:"seed"`
	Home   []HomeEndpoint `json:"home"`
	Nodes  []string       `json:"nodes"`
	Router string         `json:"router,omitempty"`
}

// HomeEndpoint is one home partition: the primary's base URL and those of
// its read replicas, the only URLs the primary streams its confirmed
// updates to (none = every miss goes to the primary).
type HomeEndpoint struct {
	Primary  string   `json:"primary"`
	Replicas []string `json:"replicas,omitempty"`
}

// Kind is the kind of process a binary runs.
type Kind string

const (
	KindNode   Kind = "node"
	KindHome   Kind = "home"
	KindRouter Kind = "router"
	KindClient Kind = "client" // serves nothing: it sends to the Entry
)

// Role is where one process sits in a Topology: its listen address (its
// URL's port); a home process's partition and its index among that
// partition's replicas, -1 for the primary; a node's span label (nodeID).
type Role struct {
	Addr               string
	Partition, Replica int
	NodeID             string
}

// LoadTopology reads and validates the topology file at path, refusing a
// field Topology does not name, and finds the process of kind at URL as in
// it. A node the file does not list is a spare: it serves, but owns
// nothing until a ring join admits it. A router is the file's router, and
// a client has no role; neither passes a URL.
func LoadTopology(path string, kind Kind, as string) (t Topology, role Role, err error) {
	f, err := os.Open(path)
	if err == nil {
		defer f.Close()
		dec := json.NewDecoder(f)
		dec.DisallowUnknownFields()
		if err = dec.Decode(&t); err == nil && dec.More() {
			err = errors.New("data after the topology object")
		}
		if err == nil {
			err = t.validate()
		}
		if err == nil {
			role, err = t.role(kind, as)
		}
	}
	if err != nil {
		return Topology{}, Role{}, fmt.Errorf("topology %s: %w", path, err)
	}
	return t, role, nil
}

// Entry is the clients' entry point: the router, or else the one node.
func (t Topology) Entry() string {
	if t.Router != "" {
		return t.Router
	}
	return t.Nodes[0]
}

// URLs lists every process the topology names, front to back.
func (t Topology) URLs() []string {
	urls := append([]string{}, t.Nodes...)
	if t.Router != "" {
		urls = append([]string{t.Router}, urls...)
	}
	for _, ep := range t.Home {
		urls = append(append(urls, ep.Primary), ep.Replicas...)
	}
	return urls
}

// validate refuses a topology no deployment can run: an unknown
// application, no home partition or node, a router with one node or
// several nodes without one, and a URL that is not http://host:port or is
// named twice anywhere in the file — two roles over one process.
func (t Topology) validate() error {
	if _, err := apps.ByName(t.App); err != nil {
		return err
	}
	switch {
	case len(t.Home) == 0:
		return errors.New("no home partition")
	case len(t.Nodes) == 0:
		return errors.New("no node")
	case len(t.Nodes) == 1 && t.Router != "":
		return errors.New("a router in front of one node: the node is the entry point")
	case len(t.Nodes) > 1 && t.Router == "":
		return fmt.Errorf("%d nodes without a router", len(t.Nodes))
	}
	seen := make(map[string]bool)
	for _, u := range t.URLs() {
		if _, err := listenAddr(u); err != nil {
			return err
		}
		if seen[u] {
			return fmt.Errorf("%s named twice", u)
		}
		seen[u] = true
	}
	return nil
}

// role finds the process of kind at URL as in t.
func (t Topology) role(kind Kind, as string) (Role, error) {
	switch kind {
	case KindClient:
		return Role{}, nil
	case KindRouter:
		if as = t.Router; as == "" {
			return Role{}, errors.New("no router: a one-node deployment's node is its entry point")
		}
	}
	addr, err := listenAddr(as)
	if err != nil {
		return Role{}, err
	}
	role, found := Role{Addr: addr, Partition: -1, Replica: -1}, KindNode
	for p, ep := range t.Home {
		if k := slices.Index(append([]string{ep.Primary}, ep.Replicas...), as); k >= 0 {
			role.Partition, role.Replica, found = p, k-1, KindHome
		}
	}
	if as == t.Router {
		found = KindRouter
	}
	switch {
	case found != kind && slices.Contains(t.URLs(), as):
		return Role{}, fmt.Errorf("%s is the topology's %s, not a %s", as, found, kind)
	case found != kind:
		return Role{}, fmt.Errorf("%s is not in the topology", as)
	case kind == KindNode:
		role.NodeID = t.nodeID(as)
	}
	return role, nil
}

// nodeID is the span label of the node at url: its ring position when a
// router fronts several, empty for a one-node deployment, and url itself
// for a spare.
func (t Topology) nodeID(url string) string {
	switch i := slices.Index(t.Nodes, url); {
	case i < 0:
		return url
	case t.Router == "":
		return ""
	default:
		return strconv.Itoa(i)
	}
}

// listenAddr checks that u is a base URL, http://host:port, and returns the
// address its process listens on: u's port, on every interface.
func listenAddr(u string) (string, error) {
	if u == "" {
		return "", errors.New("empty URL")
	}
	p, err := url.Parse(u)
	if err != nil || p.Scheme != "http" || p.Hostname() == "" || p.Port() == "" || u != "http://"+p.Host {
		return "", fmt.Errorf("URL %q: want http://host:port", u)
	}
	return ":" + p.Port(), nil
}
