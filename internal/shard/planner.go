package shard

import (
	"fmt"
	"sort"
	"sync"

	"dssp/internal/core"
	"dssp/internal/invalidate"
	"dssp/internal/wire"
)

// TemplateMove is one query template bucket whose owner changes in a
// staged rebalance.
type TemplateMove struct {
	Template string
	From     int
	To       int
}

// MovePlan is everything a warm handoff needs: the template buckets a
// staged rebalance moves. Only the sealed entries of the listed buckets
// travel; the keyring never does.
type MovePlan struct {
	Moves []TemplateMove
}

// MovesByFrom groups the moved templates by their current owner, the
// node a warm handoff exports each bucket from. Template lists preserve
// the application's template order, so export batches are deterministic.
func (mp *MovePlan) MovesByFrom() map[int][]string {
	byFrom := make(map[int][]string)
	for _, m := range mp.Moves {
		byFrom[m.From] = append(byFrom[m.From], m.Template)
	}
	return byFrom
}

// MovesByTo groups the moved templates by their next owner, the node a
// warm handoff imports each bucket into.
func (mp *MovePlan) MovesByTo() map[int][]string {
	byTo := make(map[int][]string)
	for _, m := range mp.Moves {
		byTo[m.To] = append(byTo[m.To], m.Template)
	}
	return byTo
}

// Planner is the fleet's one ownership map: which node owns a sealed
// statement, and which nodes a completed update must reach.
//
// Queries whose sealed form reveals a template ID are owned by the
// template's ring node — template affinity: every entry of that template's
// cache bucket lives on exactly one node, so adding nodes never fragments
// a bucket and per-node hit rates match the single-node deployment. Blind
// queries reveal no template; they are spread by their sealed lookup key
// (deterministic under the application's keyring, so the same blind
// statement always lands on the same node and still hits).
//
// Fan-out is precomputed per update template: the set of nodes owning at
// least one query template the static analysis could not prove A = 0 for
// — the only nodes whose caches the update can possibly affect. Nodes that
// have served blind queries are added at plan time (their hidden buckets
// must be blind-invalidated, and affinity cannot see inside them); updates
// with hidden or unknown template IDs broadcast to every node, the
// network-level analogue of the cache's blind invalidation.
//
// The ring is epoch-stamped and membership is live: StageRebalance
// computes the buckets a new member set moves without changing routing,
// CommitRebalance flips the epoch atomically (requests that resolved their
// owner before the flip drain against the old owner — exactly what warm
// handoff wants, since the old owner keeps the moved buckets until after
// the flip), and AbortRebalance discards the staged view. While a
// rebalance is staged, fan-out targets are the union of the current and
// staged owners: entries already copied to their next owner must see every
// invalidation that their still-serving old copy sees, or the migrated
// copy would go stale during the handoff window.
type Planner struct {
	idx      *invalidate.Router
	analysis *core.Analysis

	mu     sync.RWMutex
	epoch  uint64
	ring   *Ring
	owners map[string][]int // update template ID -> sorted target node set
	// staged and stagedOwners are non-nil while a rebalance is staged.
	staged       *Ring
	stagedOwners map[string][]int
	// blindSeen records the nodes that have been routed at least one
	// blind query and may hold hidden-bucket entries.
	blindSeen map[int]bool
}

// NewPlanner builds the ownership map of an n-node fleet with members
// 0..n-1, at epoch 0, and precomputes its fan-out plan from the
// application's static analysis.
func NewPlanner(n int, analysis *core.Analysis) *Planner {
	p := &Planner{
		idx:       invalidate.NewRouter(analysis),
		analysis:  analysis,
		ring:      NewRing(n),
		blindSeen: make(map[int]bool),
	}
	p.owners = p.ownersFor(p.ring)
	return p
}

// templateOwner returns the node owning a query template's bucket on a
// ring.
func templateOwner(r *Ring, id string) int { return r.Owner("tmpl\x00" + id) }

// ownersFor computes the per-update-template target node sets under one
// ring.
func (p *Planner) ownersFor(ring *Ring) map[string][]int {
	owners := make(map[string][]int, len(p.analysis.App.Updates))
	for _, u := range p.analysis.App.Updates {
		ids, ok := p.idx.Affected(u.ID)
		if !ok {
			continue
		}
		set := make(map[int]bool, len(ids))
		for _, q := range ids {
			set[templateOwner(ring, q)] = true
		}
		owners[u.ID] = sortedSet(set)
	}
	return owners
}

// sortedSet returns a node set's members in ascending order.
func sortedSet(set map[int]bool) []int {
	nodes := make([]int, 0, len(set))
	for n := range set {
		nodes = append(nodes, n)
	}
	sort.Ints(nodes)
	return nodes
}

// Nodes returns the current live member count.
func (p *Planner) Nodes() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.ring.Nodes()
}

// Members returns the sorted live node IDs.
func (p *Planner) Members() []int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.ring.Members()
}

// IsMember reports whether node is currently live.
func (p *Planner) IsMember(node int) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.ring.Contains(node)
}

// Epoch returns the current ring epoch. It advances by one at every
// committed membership change.
func (p *Planner) Epoch() uint64 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.epoch
}

// OwnerOfTemplate returns the node owning a query template's bucket.
func (p *Planner) OwnerOfTemplate(id string) int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return templateOwner(p.ring, id)
}

// NoteQuery returns the node that owns a sealed query, recording blind
// traffic so later updates know which hidden buckets exist where.
func (p *Planner) NoteQuery(sq wire.SealedQuery) int {
	if sq.TemplateID != "" {
		return p.OwnerOfTemplate(sq.TemplateID)
	}
	p.mu.RLock()
	ni := p.ring.Owner("blind\x00" + sq.Key)
	p.mu.RUnlock()
	p.NoteBlind(ni)
	return ni
}

// NoteBlind records that a node was routed a blind query — by the ring
// or by the router's blind-key cache pinning the key to its warm node —
// so fan-out keeps covering its hidden buckets.
func (p *Planner) NoteBlind(ni int) {
	p.mu.RLock()
	seen := p.blindSeen[ni]
	p.mu.RUnlock()
	if seen {
		return
	}
	p.mu.Lock()
	p.blindSeen[ni] = true
	p.mu.Unlock()
}

// ExecNode returns the node that forwards a sealed update to the home
// server. Any deterministic choice is correct (the home server executes
// the update wherever it arrives from); spreading by template — or by the
// opaque ciphertext when the template is hidden, which deterministic
// encryption keeps stable per statement — keeps update forwarding load
// off any single node.
func (p *Planner) ExecNode(su wire.SealedUpdate) int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if su.TemplateID == "" {
		return p.ring.Owner("blindu\x00" + string(su.Opaque))
	}
	return p.ring.Owner("upd\x00" + su.TemplateID)
}

// StageRebalance stages a membership change to a new member set and
// returns the plan a warm handoff executes: the query template buckets
// whose owner moves. Until CommitRebalance, queries and update execution
// keep routing on the current ring, while fan-out targets widen to the
// union of both rings' owners. At most one rebalance may be staged at a
// time.
func (p *Planner) StageRebalance(members []int) (*MovePlan, error) {
	next := NewRingMembers(members)
	nextOwners := p.ownersFor(next)
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.staged != nil {
		return nil, fmt.Errorf("shard: a rebalance is already staged")
	}
	var moves []TemplateMove
	for _, q := range p.analysis.App.Queries {
		if from, to := templateOwner(p.ring, q.ID), templateOwner(next, q.ID); from != to {
			moves = append(moves, TemplateMove{Template: q.ID, From: from, To: to})
		}
	}
	p.staged, p.stagedOwners = next, nextOwners
	return &MovePlan{Moves: moves}, nil
}

// CommitRebalance atomically flips to the staged ring and returns the new
// epoch. Owner resolutions made before the flip used the old ring
// (old-epoch requests drain against the old owner); every resolution
// after it uses the new one. Blind-seen marks for departed nodes are
// dropped with the membership.
func (p *Planner) CommitRebalance() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.staged == nil {
		panic("shard: CommitRebalance without a staged rebalance")
	}
	p.ring, p.owners = p.staged, p.stagedOwners
	p.staged, p.stagedOwners = nil, nil
	p.epoch++
	for ni := range p.blindSeen {
		if !p.ring.Contains(ni) {
			delete(p.blindSeen, ni)
		}
	}
	return p.epoch
}

// AbortRebalance discards the staged rebalance, if any.
func (p *Planner) AbortRebalance() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.staged, p.stagedOwners = nil, nil
}

// Targets returns the sorted set of nodes whose caches a completed update
// must be monitored on, and whether the plan is a blind broadcast (hidden
// or unknown update template — every node must see it). The exec node is
// not implicitly included: callers that route the update's execution
// through a node's own update pathway get that node's invalidation for
// free and fan the rest out. During a staged rebalance the set is the
// union over both rings, so entries already streamed to their next owner
// never miss an invalidation.
func (p *Planner) Targets(su wire.SealedUpdate) (nodes []int, broadcast bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	owned, known := p.owners[su.TemplateID]
	if su.TemplateID == "" || !known {
		set := make(map[int]bool)
		for _, m := range p.ring.members {
			set[m] = true
		}
		if p.staged != nil {
			for _, m := range p.staged.members {
				set[m] = true
			}
		}
		return sortedSet(set), true
	}
	stagedOwned := p.stagedOwners[su.TemplateID] // nil when not staged
	set := make(map[int]bool, len(owned)+len(stagedOwned)+len(p.blindSeen))
	for _, n := range owned {
		set[n] = true
	}
	for _, n := range stagedOwned {
		set[n] = true
	}
	for n := range p.blindSeen {
		set[n] = true
	}
	return sortedSet(set), false
}
