package schema

// Groups is a partition of a schema's tables into disjoint groups: the
// connected components of the graph whose edges are the schema's foreign
// keys plus any caller-supplied co-reference sets (typically the relation
// lists of an application's templates, so a join template's tables always
// land in one group). Group numbering is canonical: groups are numbered by
// the declaration order of their lowest-ordered table, so the same schema
// and co-references always produce the same assignment — the property the
// partitioned home tier depends on, since the trusted and untrusted sides
// derive the assignment independently and must agree on it.
type Groups struct {
	of    map[string]int // table name -> group id
	names [][]string     // group id -> member tables, declaration order
}

// DeriveGroups computes the table groups of a schema. Each coRef set names
// tables that must share a group because one statement references them all
// (a template spanning FK components merges those components — the
// "cross-group templates pin to a designated partition" rule falls out:
// after the merge there is no cross-group template left). Unknown table
// names inside coRefs are ignored; they cannot occur for templates
// resolved against s.
func DeriveGroups(s *Schema, coRefs [][]string) *Groups {
	order := make([]string, 0, len(s.order))
	index := make(map[string]int, len(s.order))
	for _, name := range s.order {
		index[name] = len(order)
		order = append(order, name)
	}

	// Union-find over table ordinals, unioning by the lower declaration
	// ordinal so a component's root is always its first-declared table.
	parent := make([]int, len(order))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra == rb {
			return
		}
		if rb < ra {
			ra, rb = rb, ra
		}
		parent[rb] = ra
	}

	for _, fk := range s.ForeignKeys {
		a, aok := index[fk.Table]
		b, bok := index[fk.RefTable]
		if aok && bok {
			union(a, b)
		}
	}
	for _, set := range coRefs {
		first := -1
		for _, name := range set {
			i, ok := index[name]
			if !ok {
				continue
			}
			if first < 0 {
				first = i
				continue
			}
			union(first, i)
		}
	}

	// Canonical numbering: walk tables in declaration order; the first
	// table of each component names (and numbers) its group.
	g := &Groups{of: make(map[string]int, len(order))}
	rootGroup := make(map[int]int)
	for i, name := range order {
		root := find(i)
		id, ok := rootGroup[root]
		if !ok {
			id = len(g.names)
			rootGroup[root] = id
			g.names = append(g.names, nil)
		}
		g.of[name] = id
		g.names[id] = append(g.names[id], name)
	}
	return g
}

// OfTable reports the group of the named table, or -1 if the table is not
// part of the schema the groups were derived from.
func (g *Groups) OfTable(name string) int {
	if id, ok := g.of[name]; ok {
		return id
	}
	return -1
}

// PartitionOf maps a table group to its home partition when the master
// database is split into parts partitions: group g pins to partition
// g mod parts. With fewer partitions than groups, several groups share a
// partition; with parts == 1 everything pins to partition 0 (the
// single-master topology). A negative group (an unhinted legacy message)
// conservatively pins to partition 0.
func PartitionOf(group, parts int) int {
	if parts <= 1 || group <= 0 {
		return 0
	}
	return group % parts
}
