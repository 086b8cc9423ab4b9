package sca

import (
	"fmt"
	"sort"
	"strings"

	"mtcmos/internal/sat"
)

// This file is the path-condition prover behind mtlint -prove: it
// converts every enumerated DC path into a conjunction of gate
// literals and asks internal/sat to prove or refute it over one CNF
// model of the whole deck's pull networks — the single-frame,
// whole-deck instance of the drive-clause encoding in cones.go
// (DESIGN.md §10). Signal rails (the deck's primary inputs) and
// non-rail gate nets are variables; supply-rail gates are the
// always-on/always-off constants the graph rules already use.
//
// Queries are made with assumptions over this one shared clause
// database (plus activation-literal clauses, which are inert unless
// assumed), so learned clauses amortize across the deck's paths while
// every deck keeps its own solver — results are deterministic however
// many decks lint in parallel.

// NetValue is one net's boolean value in a witness or model.
type NetValue struct {
	Net   string `json:"net"`
	Value bool   `json:"value"`
}

// String renders "net=1" / "net=0".
func (nv NetValue) String() string {
	if nv.Value {
		return nv.Net + "=1"
	}
	return nv.Net + "=0"
}

// Witness is an assignment of nets to logic values, sorted by net
// name. For satisfiable findings the input witness covers exactly the
// deck's signal rails — the stimulus vector that triggers the finding.
type Witness []NetValue

// String renders the witness as "a=0 b=1 ...".
func (w Witness) String() string {
	parts := make([]string, len(w))
	for i, nv := range w {
		parts[i] = nv.String()
	}
	return strings.Join(parts, " ")
}

// Get looks up one net's value.
func (w Witness) Get(net string) (bool, bool) {
	for _, nv := range w {
		if nv.Net == net {
			return nv.Value, true
		}
	}
	return false, false
}

// ProvenShort is one rail-to-rail DC path the solver proved
// satisfiable: a conducting high-to-low path under at least one input
// vector.
type ProvenShort struct {
	Component int      // component ID, or -1 for a rail-to-rail bridge device
	From, To  string   // high rail and low rail
	Devices   []string // representative path, in conduction order
	Paths     int      // parallel paths sharing this exact condition (>= 1)
	Cond      []string // the path condition as "net=v" terms (empty: unconditional)

	// Always reports that the path conducts under *every* input
	// vector (the solver refuted its negation): an MT018-class short.
	// Satisfiable-but-not-always paths are the MT023 class.
	Always bool

	// Witness is a primary-input vector under which the path conducts;
	// Model extends it with every solved gate/output net, for replay.
	Witness Witness
	Model   Witness
}

// ProvenFloating is an MT019 finding the solver confirmed: an input
// vector exists under which the output is driven by neither rail.
type ProvenFloating struct {
	FloatingOutput
	// Witness is an input vector leaving the node undriven (nil when
	// the solver returned Unknown and the finding is kept
	// conservatively).
	Witness Witness
	Model   Witness
}

// InfeasibleFloating is an MT019 finding the solver refuted: in every
// input state at least one of the output's pull paths conducts, so the
// "floating node" scenario cannot occur and the warning is suppressed.
type InfeasibleFloating struct {
	FloatingOutput
	// Core lists the pull paths (rendered as device chains) that
	// cannot all be off at once — the refutation core.
	Core []string
}

// ProofStats summarizes the solver work of one Prove call.
type ProofStats struct {
	Vars      int `json:"vars"`      // SAT variables allocated
	Clauses   int `json:"clauses"`   // problem clauses (excl. learned)
	Queries   int `json:"queries"`   // Solve calls
	Unknown   int `json:"unknown"`   // queries that exhausted the conflict budget
	Truncated int `json:"truncated"` // enumerations that hit a path cap
}

// Proof is the result of the path-condition pass over one deck.
type Proof struct {
	// Shorts holds every satisfiable rail-to-rail path, grouped by
	// condition (parallel branches collapse into one entry with a path
	// count), sorted for stable output. Always=true entries are the
	// MT018 class, the rest MT023.
	Shorts []ProvenShort

	// Floating and Suppressed partition the analysis' MT019 findings:
	// confirmed-feasible (with witness) and proven-infeasible.
	Floating   []ProvenFloating
	Suppressed []InfeasibleFloating

	Stats ProofStats
}

// symLit is a symbolic conduction literal: the named net must carry
// the given value for a device on the path to conduct (val=true for an
// NMOS gate, false for a PMOS gate). Symbolic literals are shared by
// the single-frame prover below and the two-frame exclusion encoder
// (cones.go), each of which maps them onto its own SAT variables.
type symLit struct {
	net string
	val bool
}

// symPath is one enumerated conducting path with its symbolic
// condition.
type symPath struct {
	devices []string
	nets    []string // intermediate (non-rail) nets along the path
	end     string   // terminal rail the enumeration stopped on
	lits    []symLit // deduped gate literals; empty = always conducts
}

// devSym returns a device's symbolic conduction condition as a
// condState: alwaysOff devices never conduct, alwaysOn (and resistors)
// always do, and switchable MOS devices conduct iff their gate net
// equals the returned literal's value.
func (a *Analysis) devSym(e condEdge) (lit symLit, st condState) {
	switch {
	case e.st == alwaysOff:
		return symLit{}, alwaysOff
	case e.st == alwaysOn, !e.mos:
		return symLit{}, alwaysOn
	}
	return symLit{net: e.gate, val: !e.pmos}, switchable
}

// addSymLit appends a literal to a path condition, deduping; ok=false
// when the condition became contradictory (the path needs net=1 and
// net=0 at once — e.g. the PMOS and NMOS halves of an inverter — and
// can never conduct).
func addSymLit(lits []symLit, l symLit) ([]symLit, bool) {
	for _, m := range lits {
		if m == l {
			return lits, true
		}
		if m.net == l.net {
			return nil, false
		}
	}
	return append(lits, l), true
}

// enumerateSym walks simple conducting paths from start inside
// component c until a rail of the wanted kind, collecting each path's
// symbolic condition. Contradictory paths are dropped outright; paths
// longer than maxDepth devices or beyond the limit are dropped and
// reported as truncation.
func (a *Analysis) enumerateSym(c *Component, start string, want RailKind, maxDepth, limit int) (out []symPath, truncated bool) {
	adj := a.adj[c.ID]

	type frame struct {
		devices []string
		nets    []string
		lits    []symLit
	}
	visited := map[string]bool{start: true}
	var dfs func(net string, fr frame)
	dfs = func(net string, fr frame) {
		for _, ar := range adj[net] {
			if len(out) >= limit {
				truncated = true
				return
			}
			if len(fr.devices) >= maxDepth {
				truncated = true
				break
			}
			lit, st := a.devSym(ar.edge)
			if st == alwaysOff {
				continue
			}
			lits, ok := fr.lits, true
			if st == switchable {
				if lits, ok = addSymLit(fr.lits, lit); !ok {
					continue
				}
			}
			next := frame{
				devices: append(append([]string{}, fr.devices...), ar.edge.name),
				nets:    fr.nets,
				lits:    lits,
			}
			switch k := a.rails[ar.other]; {
			case k == want:
				out = append(out, symPath{
					devices: next.devices, nets: next.nets, end: ar.other, lits: next.lits,
				})
			case k != RailNone:
				// Never conduct through another rail.
			case !visited[ar.other]:
				visited[ar.other] = true
				next.nets = append(append([]string{}, fr.nets...), ar.other)
				dfs(ar.other, next)
				visited[ar.other] = false
			}
		}
	}
	dfs(start, frame{})
	return out, truncated
}

// prover answers Prove's queries over the whole-deck encoding.
type prover struct {
	a         *Analysis
	cfg       Config
	fp        *frameProver
	truncated int // path enumerations that hit a cap
}

// Prove runs the path-condition engine over the analyzed deck: it
// encodes every pull network once, then (a) classifies each candidate
// rail-to-rail path as infeasible / conditional (MT023) / always-on
// (MT018), with a concrete witness vector for the satisfiable ones,
// and (b) re-examines each MT019 floating-output finding, keeping it
// (with a floating-state witness) only if the undriven state is
// actually reachable.
//
// Results are deterministic: variable order, path enumeration order
// and the solver's branching are all fixed, so repeated calls — on any
// GOMAXPROCS, from any worker of a parallel lint — produce identical
// proofs.
func (a *Analysis) Prove() *Proof {
	p := &Proof{}
	if a.flat == nil {
		return p
	}
	cc := newConeCache(a)
	pr := &prover{a: a, cfg: cc.cfg, fp: newFrameProver(cc, cc.deckScope(), 1, 0)}
	for _, o := range pr.fp.scope.outputs {
		pr.truncated += cc.pathsOf(o).capped
	}
	p.Shorts = pr.proveShorts()
	p.Floating, p.Suppressed = pr.proveFloating()
	p.Stats = ProofStats{
		Vars:      pr.fp.s.NumVars(),
		Clauses:   pr.fp.clauses,
		Queries:   pr.fp.queries,
		Unknown:   pr.fp.unknown,
		Truncated: pr.truncated,
	}
	return p
}

// shortGroup collects parallel candidate paths sharing one condition.
type shortGroup struct {
	comp     int
	from, to string
	first    symPath
	count    int
}

// proveShorts enumerates candidate rail-to-rail paths, groups parallel
// branches by condition, and solves each group.
func (pr *prover) proveShorts() []ProvenShort {
	groups := map[string]*shortGroup{}
	var order []string
	add := func(comp int, from, to string, p symPath) {
		sig := fmt.Sprintf("%d %s>%s %v", comp, from, to, condStrings(p.lits))
		g, ok := groups[sig]
		if !ok {
			g = &shortGroup{comp: comp, from: from, to: to, first: p}
			groups[sig] = g
			order = append(order, sig)
		}
		g.count++
	}

	// Rail-to-rail bridge devices (they belong to no component).
	for _, e := range pr.a.bridges {
		lit, st := pr.a.devSym(e)
		if st == alwaysOff {
			continue
		}
		ka, kb := pr.a.rails[e.a], pr.a.rails[e.b]
		p := symPath{devices: []string{e.name}}
		if st == switchable {
			p.lits = []symLit{lit}
		}
		switch {
		case ka == RailHigh && kb == RailLow:
			add(-1, e.a, e.b, p)
		case ka == RailLow && kb == RailHigh:
			add(-1, e.b, e.a, p)
		}
	}

	// Per-component high-to-low paths: a short traverses a pull-up and
	// a pull-down chain, so its depth budget is twice the stack limit.
	for _, c := range pr.a.Components {
		for _, r := range c.Rails {
			if pr.a.rails[r] != RailHigh {
				continue
			}
			paths, capped := pr.a.enumerateSym(c, r, RailLow, 2*pr.cfg.MaxStackDepth, pr.cfg.MaxShortPaths)
			if capped {
				pr.truncated++
			}
			for _, p := range paths {
				add(c.ID, r, p.end, p)
			}
		}
	}

	var out []ProvenShort
	for _, sig := range order {
		g := groups[sig]
		if sh, ok := pr.solveShort(g); ok {
			out = append(out, sh)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		x, y := out[i], out[j]
		if x.Always != y.Always {
			return x.Always // MT018-class first
		}
		if x.From != y.From {
			return x.From < y.From
		}
		if x.To != y.To {
			return x.To < y.To
		}
		return x.Devices[0] < y.Devices[0]
	})
	return out
}

// solveShort classifies one candidate short group: infeasible (ok
// false), conditional, or always-on.
func (pr *prover) solveShort(g *shortGroup) (ProvenShort, bool) {
	p := g.first

	// Assumptions: the path condition, then consistency for every
	// output not on the path — outputs the short runs through are
	// contended by construction and their drive constraints stay
	// released.
	onPath := map[string]bool{}
	for _, n := range p.nets {
		onPath[n] = true
	}
	consist := pr.fp.consistExcept(onPath)
	r := pr.fp.solve(append(pr.fp.condLits(0, p.lits), consist...)...)
	if r.Status != sat.Sat {
		return ProvenShort{}, false // proven infeasible, or no proof either way: stay quiet
	}

	sh := ProvenShort{
		Component: g.comp,
		From:      g.from,
		To:        g.to,
		Devices:   p.devices,
		Paths:     g.count,
		Cond:      condStrings(p.lits),
		Witness:   pr.inputWitness(&r),
		Model:     pr.fp.frameModel(&r, 0),
	}

	// Always-on iff the negated condition is unsatisfiable in a
	// consistent circuit state. An empty condition is a tautology.
	if len(p.lits) == 0 {
		sh.Always = true
		return sh, true
	}
	act := pr.fp.blocker(0, p.lits)
	sh.Always = pr.fp.solve(append([]int{act}, consist...)...).Status == sat.Unsat
	return sh, true
}

// proveFloating re-examines the analysis' floating-output findings:
// the finding survives only if some input vector leaves the node
// undriven (all of its pull paths off at once).
func (pr *prover) proveFloating() (kept []ProvenFloating, gone []InfeasibleFloating) {
	for _, fo := range pr.a.Floating {
		op := pr.fp.cc.pathsOf(fo.Net)
		pr.truncated += op.capped
		paths := append(append([]symPath{}, op.up...), op.down...)

		// One "off" assumption per path: off_p -> some device on p is
		// off. A path with an empty condition always conducts, so its
		// off clause degenerates to (!off_p) and assuming off_p is the
		// immediate refutation. No paths at all means the node is
		// trivially undriven and any consistent state is a witness.
		offVars := make([]int, len(paths))
		for i, p := range paths {
			offVars[i] = pr.fp.blocker(0, p.lits)
		}
		r := pr.fp.solve(append(append([]int{}, offVars...), pr.fp.consistent...)...)
		switch r.Status {
		case sat.Sat:
			kept = append(kept, ProvenFloating{
				FloatingOutput: fo,
				Witness:        pr.inputWitness(&r),
				Model:          pr.fp.frameModel(&r, 0),
			})
		case sat.Unsat:
			inf := InfeasibleFloating{FloatingOutput: fo}
			for _, l := range r.Core {
				for i, v := range offVars {
					if l == v {
						inf.Core = append(inf.Core, strings.Join(paths[i].devices, "+"))
					}
				}
			}
			sort.Strings(inf.Core)
			gone = append(gone, inf)
		default:
			// Unknown: keep the warning, without a witness — no proof
			// either way.
			kept = append(kept, ProvenFloating{FloatingOutput: fo})
		}
	}
	sort.Slice(kept, func(i, j int) bool { return kept[i].Net < kept[j].Net })
	sort.Slice(gone, func(i, j int) bool { return gone[i].Net < gone[j].Net })
	return kept, gone
}

// inputWitness extracts the primary-input (signal-rail) assignment.
func (pr *prover) inputWitness(r *sat.Result) Witness {
	var w Witness
	for n, k := range pr.a.rails {
		if k == RailSignal {
			w = append(w, NetValue{Net: n, Value: r.Value(pr.fp.varOf[0][n])})
		}
	}
	sort.Slice(w, func(i, j int) bool { return w[i].Net < w[j].Net })
	return w
}

// condStrings renders a condition's literals as sorted "net=v" terms,
// its canonical form for reporting and grouping.
func condStrings(lits []symLit) []string {
	out := make([]string, 0, len(lits))
	for _, l := range lits {
		out = append(out, NetValue{Net: l.net, Value: l.val}.String())
	}
	sort.Strings(out)
	return out
}
