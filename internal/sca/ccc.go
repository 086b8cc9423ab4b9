package sca

import (
	"sort"

	"mtcmos/internal/netlist"
)

// classifyRails resolves every source-driven node to a rail kind.
// Potentials are anchored at ground and propagated through chained DC
// sources; a node at >= 70% of the largest resolved potential is a
// high rail, <= 30% a low rail, anything else (including time-varying
// sources) a signal rail. Ground is always a low rail.
func classifyRails(f *netlist.Flat) map[string]RailKind {
	// DC source edges: P = N + DC. Time-varying sources still make
	// their terminals rails, but of signal kind.
	type dcEdge struct {
		other string
		delta float64
	}
	adj := map[string][]dcEdge{}
	varying := map[string]bool{}
	railNode := map[string]bool{netlist.Ground: true}
	for _, v := range f.Vs {
		railNode[v.P] = true
		railNode[v.N] = true
		if v.PWL != nil || v.Pulse != nil {
			varying[v.P] = true
			continue
		}
		adj[v.P] = append(adj[v.P], dcEdge{v.N, -v.DC})
		adj[v.N] = append(adj[v.N], dcEdge{v.P, +v.DC})
	}

	pot := map[string]float64{netlist.Ground: 0}
	queue := []string{netlist.Ground}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range adj[n] {
			if _, ok := pot[e.other]; ok {
				continue // first resolution wins; conflicts are lint's concern
			}
			pot[e.other] = pot[n] + e.delta
			queue = append(queue, e.other)
		}
	}

	vmax := 0.0
	for _, v := range pot {
		if v > vmax {
			vmax = v
		}
	}

	rails := make(map[string]RailKind, len(railNode))
	for n := range railNode {
		switch v, resolved := pot[n]; {
		case n == netlist.Ground:
			rails[n] = RailLow
		case varying[n] || !resolved:
			rails[n] = RailSignal
		case vmax > 0 && v >= 0.7*vmax:
			rails[n] = RailHigh
		case v <= 0.3*vmax:
			rails[n] = RailLow
		default:
			rails[n] = RailSignal
		}
	}
	return rails
}

// numberNets gives every node of the deck its dense index, in name
// order, and records each index's rail kind.
func (a *Analysis) numberNets(f *netlist.Flat) {
	a.nets = f.Nodes()
	a.netID = make(map[string]int32, len(a.nets))
	a.netKind = make([]RailKind, len(a.nets))
	for i, n := range a.nets {
		a.netID[n] = int32(i)
		a.netKind[i] = a.rails[n]
	}
}

// unionFind is a disjoint-set forest over net indices: entry i is the
// parent of net i, and a root is its own parent.
type unionFind []int32

// newUnionFind returns n singleton sets.
func newUnionFind(n int) unionFind {
	u := make(unionFind, n)
	for i := range u {
		u[i] = int32(i)
	}
	return u
}

// add makes x a singleton unless it is in the forest already; a
// negative entry marks a net outside it.
func (u unionFind) add(x int32) {
	if u[x] < 0 {
		u[x] = x
	}
}

func (u unionFind) find(x int32) int32 {
	for u[x] != x {
		u[x] = u[u[x]] // path halving
		x = u[x]
	}
	return x
}

func (u unionFind) union(x, y int32) {
	if rx, ry := u.find(x), u.find(y); rx != ry {
		u[rx] = ry
	}
}

// conductors lists the DC-conducting branches of the deck as uniform
// edges: MOS channels carry their conduction state, resistors are
// always on.
type condState int

const (
	switchable condState = iota
	alwaysOn
	alwaysOff
)

type condEdge struct {
	name   string
	a, b   string // channel / resistor terminals
	ia, ib int32  // their net indices
	st     condState
	mos    bool
	gate   string // MOS gate net ("" for resistors)
	ig     int32  // its net index (-1 for resistors)
	pmos   bool   // MOS polarity (meaningless for resistors)
}

// conductors derives the edge list plus the set of rail-to-rail
// bridge devices (both terminals are rails; they belong to no
// component but still matter for short detection), and indexes the
// devices by name.
func (a *Analysis) conductors(f *netlist.Flat) {
	state := func(m netlist.MOS) condState {
		gk := a.rails[m.G]
		if isPMOSModel(m.Model) {
			switch gk {
			case RailLow:
				return alwaysOn
			case RailHigh:
				return alwaysOff
			}
			return switchable
		}
		switch gk {
		case RailHigh:
			return alwaysOn
		case RailLow:
			return alwaysOff
		}
		return switchable
	}
	add := func(e condEdge) {
		e.ia, e.ib = a.netID[e.a], a.netID[e.b]
		if a.netKind[e.ia] != RailNone && a.netKind[e.ib] != RailNone {
			a.bridges = append(a.bridges, e)
		} else {
			a.edges = append(a.edges, e)
		}
	}
	for _, m := range f.MOS {
		add(condEdge{name: m.Name, a: m.D, b: m.S, st: state(m), mos: true,
			gate: m.G, ig: a.netID[m.G], pmos: isPMOSModel(m.Model)})
	}
	for _, r := range f.Ress {
		add(condEdge{name: r.Name, a: r.A, b: r.B, st: alwaysOn, ig: -1})
	}
	// A name used twice resolves to its last device, edges before
	// bridges.
	a.devID = make(map[string]int32, len(a.edges)+len(a.bridges))
	for i, e := range a.edges {
		a.devID[e.name] = int32(i)
	}
	for i, e := range a.bridges {
		a.devID[e.name] = int32(len(a.edges) + i)
	}
}

func isPMOSModel(model string) bool {
	return len(model) > 0 && (model[0] == 'p' || model[0] == 'P')
}

// partition groups every non-rail net into its channel-connected
// component via union-find on channel (and resistor) connectivity,
// split at rails. Nets with no channel attachment become singleton
// components, so the components partition the non-rail net set
// exactly.
func (a *Analysis) partition(f *netlist.Flat) {
	uf := newUnionFind(len(a.nets))
	for _, e := range a.edges {
		if a.netKind[e.ia] == RailNone && a.netKind[e.ib] == RailNone {
			uf.union(e.ia, e.ib)
		}
	}

	// Outputs: nets used as a MOS gate, or carrying an explicit cap.
	isOutput := make([]bool, len(a.nets))
	for _, m := range f.MOS {
		isOutput[a.netID[m.G]] = true
	}
	for _, c := range f.Caps {
		isOutput[a.netID[c.A]] = true
		isOutput[a.netID[c.B]] = true
	}

	// Nets are numbered in name order, so visiting them in index order
	// lists each component's members sorted and numbers the components
	// by their smallest member.
	a.comp = make([]int32, len(a.nets))
	idOf := make([]int32, len(a.nets)) // root -> component ID + 1
	for i, n := range a.nets {
		if a.netKind[i] != RailNone {
			a.comp[i] = -1
			continue
		}
		root := uf.find(int32(i))
		if idOf[root] == 0 {
			a.Components = append(a.Components, &Component{ID: len(a.Components)})
			idOf[root] = int32(len(a.Components))
		}
		id := idOf[root] - 1
		a.comp[i] = id
		c := a.Components[id]
		c.Nets = append(c.Nets, n)
		if isOutput[i] {
			c.Outputs = append(c.Outputs, n)
		}
	}
	for _, c := range a.Components {
		for _, o := range c.Outputs {
			a.outs = append(a.outs, a.netID[o])
		}
	}

	// Attach devices and touched rails.
	railSets := make([]map[string]bool, len(a.Components))
	for _, e := range a.edges {
		id := a.comp[e.ia]
		if id < 0 {
			id = a.comp[e.ib]
		}
		c := a.Components[id]
		c.Devices = append(c.Devices, e.name)
		for _, n := range []string{e.a, e.b} {
			if a.rails[n] != RailNone {
				if railSets[id] == nil {
					railSets[id] = map[string]bool{}
				}
				railSets[id][n] = true
			}
		}
	}
	for id, c := range a.Components {
		sort.Strings(c.Devices)
		c.Rails = sortedKeys(railSets[id])
	}

	a.stats.Components = len(a.Components)
	a.stats.RailBridges = len(a.bridges)
	for _, c := range a.Components {
		if len(c.Devices) > a.stats.LargestDevices {
			a.stats.LargestDevices = len(c.Devices)
		}
		if len(c.Nets) > a.stats.LargestNets {
			a.stats.LargestNets = len(c.Nets)
		}
	}
}
