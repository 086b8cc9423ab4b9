package lint

import (
	"math"
	"sort"
	"strings"

	"mtcmos/internal/netlist"
)

// --- connectivity rules ---

var ruleFloatingNode = &rule{
	code:  "MT001",
	sev:   Error,
	title: "floating node: connected to a single device terminal (netlist) or neither input nor driven (circuit)",
	check: func(t *Target, s *sink) {
		if t.Flat != nil {
			counts := attachments(t.Flat)
			for _, n := range sortedNodes(counts) {
				if n != netlist.Ground && counts[n] == 1 {
					s.emit(n, "node %q is floating: it connects to only one device terminal", n)
				}
			}
		}
		if t.Circuit != nil {
			for _, n := range t.Circuit.Nets() {
				if n.Driver == nil && !n.IsInput {
					s.emit(n.Name, "net %q is neither a primary input nor driven by a gate", n.Name)
				}
			}
		}
	},
}

var ruleNoDCPath = &rule{
	code:  "MT002",
	sev:   Error,
	title: "node has no DC path to a supply rail (through channels, resistors or sources)",
	check: func(t *Target, s *sink) {
		f := t.Flat
		if f == nil {
			return
		}
		// Conduction graph: MOS channels (D-S), resistors and voltage
		// sources conduct DC; capacitors and MOS gates/bulks do not.
		adj := map[string][]string{}
		edge := func(a, b string) {
			adj[a] = append(adj[a], b)
			adj[b] = append(adj[b], a)
		}
		for _, m := range f.MOS {
			edge(m.D, m.S)
		}
		for _, r := range f.Ress {
			edge(r.A, r.B)
		}
		for _, v := range f.Vs {
			edge(v.P, v.N)
		}
		// Rails: ground plus every source terminal.
		seen := map[string]bool{netlist.Ground: true}
		queue := []string{netlist.Ground}
		push := func(n string) {
			if !seen[n] {
				seen[n] = true
				queue = append(queue, n)
			}
		}
		for _, v := range f.Vs {
			push(v.P)
			push(v.N)
		}
		for len(queue) > 0 {
			n := queue[0]
			queue = queue[1:]
			for _, next := range adj[n] {
				push(next)
			}
		}
		for _, n := range f.Nodes() {
			if !seen[n] {
				s.emit(n, "node %q has no DC path to a supply rail", n)
			}
		}
	},
}

var ruleDuplicateName = &rule{
	code:  "MT003",
	sev:   Error,
	title: "duplicate device name within one scope",
	check: func(t *Target, s *sink) {
		if t.Flat == nil {
			return
		}
		counts := map[string]int{}
		for _, n := range deviceNames(t.Flat) {
			counts[n]++
		}
		for _, n := range sortedNodes(counts) {
			if counts[n] > 1 {
				s.emit(n, "device name %q appears %d times", n, counts[n])
			}
		}
	},
}

var ruleUnusedPort = &rule{
	code:  "MT004",
	sev:   Warn,
	title: ".subckt port is never used inside its definition",
	check: func(t *Target, s *sink) {
		if t.Netlist == nil {
			return
		}
		for _, name := range sortedSubckts(t.Netlist) {
			sub := t.Netlist.Subckts[name]
			used := subcktNodes(sub)
			for _, p := range sub.Ports {
				if !used[p] {
					s.emit(name+"/"+p, "subckt %q port %q is unconnected inside the definition", name, p)
				}
			}
		}
	},
}

var ruleUninstantiated = &rule{
	code:  "MT005",
	sev:   Info,
	title: ".subckt defined but never instantiated",
	check: func(t *Target, s *sink) {
		if t.Netlist == nil {
			return
		}
		reached := map[string]bool{}
		var walk func(sub *netlist.Subckt)
		walk = func(sub *netlist.Subckt) {
			for _, inst := range sub.Insts {
				of := strings.ToLower(inst.Of)
				if reached[of] {
					continue
				}
				reached[of] = true
				if def, ok := t.Netlist.Subckts[of]; ok {
					walk(def)
				}
			}
		}
		if t.Netlist.Top != nil {
			walk(t.Netlist.Top)
		}
		for _, name := range sortedSubckts(t.Netlist) {
			if !reached[name] {
				s.emit(name, "subckt %q is defined but never instantiated", name)
			}
		}
	},
}

var ruleShortedChannel = &rule{
	code:  "MT006",
	sev:   Warn,
	title: "MOSFET drain and source tied to the same node (shorted channel)",
	check: func(t *Target, s *sink) {
		if t.Flat == nil {
			return
		}
		for _, m := range t.Flat.MOS {
			if m.D == m.S {
				s.emit(m.Name, "mosfet %s has drain and source tied to node %q", m.Name, m.D)
			}
		}
	},
}

// --- electrical sanity rules ---

var ruleNonPositiveGeometry = &rule{
	code:  "MT007",
	sev:   Error,
	title: "non-positive or non-finite device W/L (netlist) or gate size (circuit)",
	check: func(t *Target, s *sink) {
		if t.Flat != nil {
			for _, m := range t.Flat.MOS {
				if !(m.W > 0) || !(m.L > 0) || math.IsInf(m.W, 0) || math.IsInf(m.L, 0) {
					s.emit(m.Name, "mosfet %s has non-positive dimensions W=%.4g L=%.4g", m.Name, m.W, m.L)
				}
			}
		}
		if c := t.Circuit; c != nil {
			for _, g := range c.Gates {
				if !(g.Size > 0) {
					s.emit(g.Name, "gate %s has non-positive size %.4g", g.Name, g.Size)
				}
			}
			for di, d := range c.Domains() {
				switch {
				case d.SleepWL < 0:
					s.emit(d.Name, "sleep domain %d has negative sleep W/L %.4g", di, d.SleepWL)
				case math.IsNaN(d.SleepWL) || math.IsInf(d.SleepWL, 0):
					s.emit(d.Name, "sleep domain %d has non-finite sleep W/L %.4g", di, d.SleepWL)
				}
			}
		}
	},
}

var ruleBadPassive = &rule{
	code:  "MT008",
	sev:   Error,
	title: "negative capacitance, or non-positive resistance",
	check: func(t *Target, s *sink) {
		if c := t.Circuit; c != nil {
			for di, d := range c.Domains() {
				if d.VGndCap < 0 || math.IsNaN(d.VGndCap) || math.IsInf(d.VGndCap, 0) {
					s.emit(d.Name, "sleep domain %d has invalid virtual-ground capacitance %.4g F", di, d.VGndCap)
				}
			}
		}
		if t.Flat == nil {
			return
		}
		for _, c := range t.Flat.Caps {
			if c.F < 0 || math.IsNaN(c.F) || math.IsInf(c.F, 0) {
				s.emit(c.Name, "capacitor %s has invalid value %.4g F", c.Name, c.F)
			}
		}
		for _, r := range t.Flat.Ress {
			if !(r.Ohms > 0) || math.IsInf(r.Ohms, 0) {
				s.emit(r.Name, "resistor %s has non-positive value %.4g ohm", r.Name, r.Ohms)
			}
		}
	},
}

// Process-window bounds for MT009, in units of the technology's Lmin
// (aspect ratio is dimensionless). Deliberately loose: they catch unit
// mistakes (a width entered in microns as meters), not tight design
// rules.
const (
	maxLOverLmin = 100
	minWOverLmin = 0.2
	maxAspectWL  = 1e4
)

var ruleProcessWindow = &rule{
	code:  "MT009",
	sev:   Warn,
	title: "device geometry outside the process window, or inconsistent technology parameters",
	check: func(t *Target, s *sink) {
		if t.Tech == nil {
			return
		}
		if err := t.Tech.Validate(); err != nil {
			s.at(Error, t.Tech.Name, "%v", err)
			return
		}
		if t.Flat == nil {
			return
		}
		lmin := t.Tech.Lmin
		for _, m := range t.Flat.MOS {
			if !(m.W > 0) || !(m.L > 0) {
				continue // MT007's finding
			}
			switch {
			case m.L < lmin*(1-1e-9):
				s.emit(m.Name, "mosfet %s L=%.4g is below the %s minimum length %.4g", m.Name, m.L, t.Tech.Name, lmin)
			case m.L > maxLOverLmin*lmin:
				s.emit(m.Name, "mosfet %s L=%.4g exceeds %d x Lmin of %s", m.Name, m.L, maxLOverLmin, t.Tech.Name)
			case m.W < minWOverLmin*lmin:
				s.emit(m.Name, "mosfet %s W=%.4g is below the %s minimum width %.4g", m.Name, m.W, t.Tech.Name, minWOverLmin*lmin)
			case m.WL() > maxAspectWL:
				s.emit(m.Name, "mosfet %s aspect ratio W/L=%.4g is outside the plausible window (max %.0g)", m.Name, m.WL(), float64(maxAspectWL))
			}
		}
	},
}

var ruleNonMonotonePWL = &rule{
	code:  "MT010",
	sev:   Error,
	title: "PWL source with non-monotone or mismatched time points",
	check: func(t *Target, s *sink) {
		if t.Flat == nil {
			return
		}
		for _, v := range t.Flat.Vs {
			p := v.PWL
			if p == nil {
				continue
			}
			if len(p.T) == 0 || len(p.T) != len(p.V) {
				s.emit(v.Name, "source %s has a malformed PWL (%d times, %d values)", v.Name, len(p.T), len(p.V))
				continue
			}
			for i := 1; i < len(p.T); i++ {
				if p.T[i] <= p.T[i-1] {
					s.emit(v.Name, "source %s PWL times are not strictly increasing (t[%d]=%.4g after %.4g)",
						v.Name, i, p.T[i], p.T[i-1])
					break
				}
			}
		}
	},
}

var ruleSourceLevel = &rule{
	code:  "MT011",
	sev:   Warn,
	title: "source level outside the supply window",
	check: func(t *Target, s *sink) {
		if t.Flat == nil || t.Tech == nil || t.Tech.Vdd <= 0 {
			return
		}
		lo, hi := -0.3, t.Tech.Vdd+0.3
		bad := func(level float64) bool { return level < lo || level > hi }
		for _, v := range t.Flat.Vs {
			switch {
			case v.PWL != nil:
				for _, level := range v.PWL.V {
					if bad(level) {
						s.emit(v.Name, "source %s PWL level %.4g V is outside the supply window [%.2g, %.2g]", v.Name, level, lo, hi)
						break
					}
				}
			case v.Pulse != nil:
				if bad(v.Pulse.V1) || bad(v.Pulse.V2) {
					s.emit(v.Name, "source %s PULSE levels %.4g/%.4g V are outside the supply window [%.2g, %.2g]",
						v.Name, v.Pulse.V1, v.Pulse.V2, lo, hi)
				}
			default:
				if bad(v.DC) {
					s.emit(v.Name, "source %s DC level %.4g V is outside the supply window [%.2g, %.2g]", v.Name, v.DC, lo, hi)
				}
			}
		}
	},
}

// --- shared helpers ---

// attachments counts how many device terminals touch each node.
func attachments(f *netlist.Flat) map[string]int {
	counts := map[string]int{}
	add := func(ns ...string) {
		for _, n := range ns {
			counts[n]++
		}
	}
	for _, m := range f.MOS {
		add(m.D, m.G, m.S, m.B)
	}
	for _, c := range f.Caps {
		add(c.A, c.B)
	}
	for _, r := range f.Ress {
		add(r.A, r.B)
	}
	for _, v := range f.Vs {
		add(v.P, v.N)
	}
	return counts
}

func deviceNames(f *netlist.Flat) []string {
	var names []string
	for _, m := range f.MOS {
		names = append(names, m.Name)
	}
	for _, c := range f.Caps {
		names = append(names, c.Name)
	}
	for _, r := range f.Ress {
		names = append(names, r.Name)
	}
	for _, v := range f.Vs {
		names = append(names, v.Name)
	}
	return names
}

func sortedNodes(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func sortedSubckts(nl *netlist.Netlist) []string {
	out := make([]string, 0, len(nl.Subckts))
	for n := range nl.Subckts {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// subcktNodes collects every node name referenced by the cards of one
// subcircuit body.
func subcktNodes(s *netlist.Subckt) map[string]bool {
	used := map[string]bool{}
	add := func(ns ...string) {
		for _, n := range ns {
			used[netlist.CanonNode(n)] = true
		}
	}
	for _, m := range s.MOS {
		add(m.D, m.G, m.S, m.B)
	}
	for _, c := range s.Caps {
		add(c.A, c.B)
	}
	for _, r := range s.Ress {
		add(r.A, r.B)
	}
	for _, v := range s.Vs {
		add(v.P, v.N)
	}
	for _, inst := range s.Insts {
		add(inst.Nodes...)
	}
	return used
}
