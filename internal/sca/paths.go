package sca

import "sort"

// arc is one conducting branch as seen from a particular net.
type arc struct {
	edge  condEdge
	other string
}

// arcMap is a component's adjacency: member net (or touched rail) to
// its conducting branches.
type arcMap map[string][]arc

// enumeratePaths runs the per-component DC-path checks: always-on
// VDD→GND shorts, outputs missing a pull network, and conducting
// paths deeper than the series-stack limit.
func (a *Analysis) enumeratePaths(cfg Config) {
	// A single always-on device strapping a high rail to a low rail is
	// the degenerate short.
	for _, e := range a.bridges {
		if e.st != alwaysOn {
			continue
		}
		ka, kb := a.rails[e.a], a.rails[e.b]
		switch {
		case ka == RailHigh && kb == RailLow:
			a.Shorts = append(a.Shorts, ShortPath{Component: -1, From: e.a, To: e.b, Devices: []string{e.name}})
		case ka == RailLow && kb == RailHigh:
			a.Shorts = append(a.Shorts, ShortPath{Component: -1, From: e.b, To: e.a, Devices: []string{e.name}})
		}
	}

	anyHigh, anyLow := false, false
	for _, k := range a.rails {
		switch k {
		case RailHigh:
			anyHigh = true
		case RailLow:
			anyLow = true
		}
	}

	// Per-component adjacency over the conducting edges.
	adj := make([]arcMap, len(a.Components))
	addArc := func(id int, from string, e condEdge, to string) {
		if adj[id] == nil {
			adj[id] = arcMap{}
		}
		adj[id][from] = append(adj[id][from], arc{e, to})
	}
	for _, e := range a.edges {
		id := int(a.comp[e.ia])
		if id < 0 {
			id = int(a.comp[e.ib])
		}
		addArc(id, e.a, e, e.b)
		addArc(id, e.b, e, e.a)
	}
	for _, m := range adj {
		for _, arcs := range m {
			sort.Slice(arcs, func(i, j int) bool { return arcs[i].edge.name < arcs[j].edge.name })
		}
	}
	a.adj = adj

	// virtualRail marks nets one always-on device away from a rail
	// (virtual-ground rails behind an ON sleep transistor, and the
	// like): they behave as extensions of that rail and are not logic
	// outputs to screen.
	virtualRail := map[string]bool{}
	for _, e := range a.edges {
		if e.st != alwaysOn {
			continue
		}
		if a.rails[e.a] != RailNone && a.rails[e.b] == RailNone {
			virtualRail[e.b] = true
		}
		if a.rails[e.b] != RailNone && a.rails[e.a] == RailNone {
			virtualRail[e.a] = true
		}
	}

	for _, c := range a.Components {
		m := adj[c.ID]

		// Always-on short: DFS from each high rail through always-on
		// devices, never passing through another rail, until a low rail.
		// One finding per component keeps pathological decks readable.
		if sp, ok := findAlwaysOnShort(a, c, m); ok {
			a.Shorts = append(a.Shorts, sp)
		}

		if len(c.Outputs) == 0 {
			continue
		}
		distHigh := railDistances(a, c, m, RailHigh)
		distLow := railDistances(a, c, m, RailLow)
		for _, o := range c.Outputs {
			if virtualRail[o] {
				continue
			}
			dUp, upOK := distHigh[o]
			dDown, downOK := distLow[o]
			missUp := anyHigh && !upOK
			missDown := anyLow && !downOK
			if missUp || missDown {
				a.Floating = append(a.Floating, FloatingOutput{
					Component: c.ID, Net: o, MissingPullUp: missUp, MissingPullDown: missDown,
				})
			}
			if upOK && dUp > a.stats.MaxStackDepth {
				a.stats.MaxStackDepth = dUp
			}
			if downOK && dDown > a.stats.MaxStackDepth {
				a.stats.MaxStackDepth = dDown
			}
			if upOK && dUp > cfg.MaxStackDepth {
				a.Deep = append(a.Deep, DeepPath{Component: c.ID, Net: o, Dir: "pull-up", Depth: dUp})
			}
			if downOK && dDown > cfg.MaxStackDepth {
				a.Deep = append(a.Deep, DeepPath{Component: c.ID, Net: o, Dir: "pull-down", Depth: dDown})
			}
		}
	}

	sort.Slice(a.Shorts, func(i, j int) bool {
		x, y := a.Shorts[i], a.Shorts[j]
		if x.From != y.From {
			return x.From < y.From
		}
		return x.Devices[0] < y.Devices[0]
	})
	sort.Slice(a.Floating, func(i, j int) bool { return a.Floating[i].Net < a.Floating[j].Net })
	sort.Slice(a.Deep, func(i, j int) bool {
		if a.Deep[i].Net != a.Deep[j].Net {
			return a.Deep[i].Net < a.Deep[j].Net
		}
		return a.Deep[i].Dir < a.Deep[j].Dir
	})
}

// findAlwaysOnShort looks for a path of always-on devices from a high
// rail touched by the component to a low rail, passing only through
// the component's own nets.
func findAlwaysOnShort(a *Analysis, c *Component, adj arcMap) (ShortPath, bool) {
	for _, start := range c.Rails {
		if a.rails[start] != RailHigh {
			continue
		}
		type frame struct {
			net string
			via []string // devices so far
		}
		visited := map[string]bool{}
		stack := []frame{{net: start}}
		for len(stack) > 0 {
			fr := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, ar := range adj[fr.net] {
				if ar.edge.st != alwaysOn {
					continue
				}
				path := append(append([]string{}, fr.via...), ar.edge.name)
				switch a.rails[ar.other] {
				case RailLow:
					return ShortPath{Component: c.ID, From: start, To: ar.other, Devices: path}, true
				case RailNone:
					if !visited[ar.other] {
						visited[ar.other] = true
						stack = append(stack, frame{net: ar.other, via: path})
					}
				}
			}
		}
	}
	return ShortPath{}, false
}

// railDistances runs a multi-source BFS from every rail of the given
// kind touched by the component, across devices that are not
// statically tied off, and returns the hop count (devices traversed)
// to each reachable member net.
func railDistances(a *Analysis, c *Component, adj arcMap, kind RailKind) map[string]int {
	dist := map[string]int{}
	var queue []string
	for _, r := range c.Rails {
		if a.rails[r] == kind {
			queue = append(queue, r)
			dist[r] = 0
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, ar := range adj[n] {
			if ar.edge.st == alwaysOff {
				continue
			}
			if a.rails[ar.other] != RailNone {
				continue // never conduct through another rail
			}
			if _, seen := dist[ar.other]; seen {
				continue
			}
			dist[ar.other] = dist[n] + 1
			queue = append(queue, ar.other)
		}
	}
	for _, r := range c.Rails {
		delete(dist, r)
	}
	return dist
}
