package sca

import (
	"sort"
	"sync"

	"mtcmos/internal/sat"
)

// Logic-cone extraction and the package's one CNF encoder (DESIGN.md
// §10–§11), behind both Prove (cond.go) and the mutual-exclusion
// refinement (excl.go).
//
// Drive clauses: every net of a scope gets one boolean variable per
// frame, and every logic output o is tied to its pull networks by one
// clause per enumerated pull path with gate literals l1..lk:
//
//	(!l1 | ... | !lk | o | dis_o)   for a pull-up path
//	(!l1 | ... | !lk | !o | dis_o)  for a pull-down path
//
// An output feeding gates in other components is one shared variable,
// so cross-CCC correlations are modeled, not assumed independent: an
// inverter's output never equals its input in any model. dis_o is the
// per-output contention escape: settle pins every output consistent
// (!dis_o assumed) except those whose dis is forced — an unconditional
// contention, already an MT018 on its own — so one bad node cannot
// make every other query vacuously unsat. Undriven outputs are
// unconstrained: a floating node may hold either value (charge
// retention).
//
// Prove encodes one frame over the whole deck (deckScope). The
// exclusion proofs encode two frames over logic cones. A gate output's
// *logic cone* is the transitive fan-in that decides its steady-state
// value: starting from the output's own pull paths, every gate net
// appearing in a path condition is either a primary input (signal
// rail) or another logic output, whose own pull paths recurse. An
// exclusion query over gates g and h only instantiates the union of
// their cones, not the whole deck.
//
// "Output X falls in this cycle" is encoded over two frames — two
// copies of the cone's drive clauses sharing nothing but the query
// assumptions — as X@0=1 ∧ X@1=0: frame 0 is the settled state before
// the input edge, frame 1 the settled state after it. Inputs are free
// in both frames (any vector pair), so two outputs are mutually
// exclusive iff "g falls ∧ h falls" is unsatisfiable over one shared
// vector pair. Dropping clauses (cone restriction, path-cap
// truncation) only adds models, so an Unsat answer on the restricted
// encoding is sound for the full one.

// outPaths caches one output's enumerated pull paths.
type outPaths struct {
	up, down []symPath
	capped   int // directions (0–2) whose enumeration hit a path cap
}

// coneCache lazily enumerates and caches per-output pull paths over
// one analysis, and answers cone-closure queries. It is safe for
// concurrent use, so parallel exclusion chunks share one; enumeration
// is deterministic, so which chunk fills an entry never matters.
type coneCache struct {
	a        *Analysis
	cfg      Config
	isOutput map[string]bool

	mu    sync.Mutex
	paths map[string]*outPaths
}

func newConeCache(a *Analysis) *coneCache {
	cc := &coneCache{
		a:        a,
		cfg:      a.cfg.withDefaults(),
		isOutput: map[string]bool{},
		paths:    map[string]*outPaths{},
	}
	for _, c := range a.Components {
		for _, o := range c.Outputs {
			cc.isOutput[o] = true
		}
	}
	return cc
}

// pathsOf enumerates (once) the pull paths of one output.
func (cc *coneCache) pathsOf(o string) *outPaths {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if p, ok := cc.paths[o]; ok {
		return p
	}
	p := &outPaths{}
	ci := cc.a.ComponentOf(o)
	if ci >= 0 {
		c := cc.a.Components[ci]
		var upCut, downCut bool
		p.up, upCut = cc.a.enumerateSym(c, o, RailHigh, cc.cfg.MaxStackDepth, cc.cfg.MaxPathsPerOutput)
		p.down, downCut = cc.a.enumerateSym(c, o, RailLow, cc.cfg.MaxStackDepth, cc.cfg.MaxPathsPerOutput)
		if upCut {
			p.capped++
		}
		if downCut {
			p.capped++
		}
	}
	cc.paths[o] = p
	return p
}

// coneScope is the closed variable/clause universe of one encoding:
// the outputs to encode drive clauses for, and every net needing a SAT
// variable per frame.
type coneScope struct {
	outputs []string // sorted outputs (one dis variable each per frame)
	nets    []string // sorted variable universe (superset of outputs)
	order   []string // outputs in drive-clause order (nil: outputs)
}

// cone computes the backward closure of the roots.
func (cc *coneCache) cone(roots []string) coneScope {
	seenOut := map[string]bool{}
	seenNet := map[string]bool{}
	var work []string
	for _, r := range roots {
		if cc.isOutput[r] && !seenOut[r] {
			seenOut[r] = true
			seenNet[r] = true
			work = append(work, r)
		}
	}
	for len(work) > 0 {
		o := work[len(work)-1]
		work = work[:len(work)-1]
		p := cc.pathsOf(o)
		for _, paths := range [][]symPath{p.up, p.down} {
			for _, sp := range paths {
				for _, l := range sp.lits {
					seenNet[l.net] = true
					if cc.isOutput[l.net] && !seenOut[l.net] {
						seenOut[l.net] = true
						work = append(work, l.net)
					}
				}
			}
		}
	}
	return coneScope{outputs: sortedKeys(seenOut), nets: sortedKeys(seenNet)}
}

// deckScope is the whole-deck universe of Prove: every signal rail
// (primary input), every non-rail MOS gate net (rail-to-rail bridges'
// included) and every logic output, with drive clauses encoded
// component by component.
func (cc *coneCache) deckScope() coneScope {
	a := cc.a
	nets := map[string]bool{}
	for n, k := range a.rails {
		if k == RailSignal {
			nets[n] = true
		}
	}
	for _, es := range [][]condEdge{a.edges, a.bridges} {
		for _, e := range es {
			if e.mos && a.rails[e.gate] != RailHigh && a.rails[e.gate] != RailLow {
				nets[e.gate] = true
			}
		}
	}
	var order []string
	for _, c := range a.Components {
		for _, o := range c.Outputs {
			nets[o] = true
			order = append(order, o)
		}
	}
	return coneScope{outputs: sortedKeys(cc.isOutput), nets: sortedKeys(nets), order: order}
}

// frameVar identifies what a SAT variable stands for, for model
// extraction (net == "" for dis/aux variables).
type frameVar struct {
	frame int
	net   string
}

// frameProver encodes a scope once per frame — for the exclusion
// proofs frame 0 (before the edge) and frame 1 (after) — in one solver
// and answers queries over it. Each prover is self-contained and
// deterministic: variable order is frame-major then sorted-net, then
// one dis variable per frame and sorted output, so identical scopes
// produce identical proofs on any worker.
type frameProver struct {
	s     *sat.Solver
	cc    *coneCache
	scope coneScope

	varOf []map[string]int // per frame: net -> variable
	disOf []map[string]int // per frame: output -> contention escape
	vars  []frameVar       // 1-based variable -> meaning

	consistent []int // "!dis" assumptions that survived settling

	queries, unknown, clauses int
}

// newFrameProver encodes the scope in the given number of frames and
// settles its consistency set. maxConflicts bounds every Solve call
// (0 = solver default).
func newFrameProver(cc *coneCache, scope coneScope, frames, maxConflicts int) *frameProver {
	fp := &frameProver{
		s:     sat.New(),
		cc:    cc,
		scope: scope,
		varOf: make([]map[string]int, frames),
		disOf: make([]map[string]int, frames),
		vars:  []frameVar{{}},
	}
	fp.s.MaxConflicts = maxConflicts
	for f := range frames {
		fp.varOf[f] = map[string]int{}
		for _, n := range scope.nets {
			fp.varOf[f][n] = fp.s.NewVar()
			fp.vars = append(fp.vars, frameVar{frame: f, net: n})
		}
	}
	for f := range frames {
		fp.disOf[f] = map[string]int{}
		for _, o := range scope.outputs {
			fp.disOf[f][o] = fp.s.NewVar()
			fp.vars = append(fp.vars, frameVar{frame: f})
		}
	}
	order := scope.order
	if order == nil {
		order = scope.outputs
	}
	for f := range frames {
		for _, o := range order {
			vo, do := fp.varOf[f][o], fp.disOf[f][o]
			p := cc.pathsOf(o)
			for _, sp := range p.up {
				fp.s.AddClause(append(fp.negLits(f, sp.lits), vo, do)...)
				fp.clauses++
			}
			for _, sp := range p.down {
				fp.s.AddClause(append(fp.negLits(f, sp.lits), -vo, do)...)
				fp.clauses++
			}
		}
	}
	fp.settle()
	return fp
}

// lit maps one symbolic literal into a frame.
func (fp *frameProver) lit(f int, l symLit) int {
	v := fp.varOf[f][l.net]
	if !l.val {
		v = -v
	}
	return v
}

// condLits maps a symbolic condition into a frame: net=1 becomes +v,
// net=0 becomes -v.
func (fp *frameProver) condLits(f int, lits []symLit) []int {
	out := make([]int, 0, len(lits)+2)
	for _, l := range lits {
		out = append(out, fp.lit(f, l))
	}
	return out
}

// negLits negates a symbolic condition into a frame (the clause form
// "some device on the path is off").
func (fp *frameProver) negLits(f int, lits []symLit) []int {
	out := fp.condLits(f, lits)
	for i := range out {
		out[i] = -out[i]
	}
	return out
}

// blocker adds a fresh variable b and the clause b → "some literal of
// the frame-f condition is false": assuming b forbids the condition.
func (fp *frameProver) blocker(f int, lits []symLit) int {
	b := fp.s.NewVar()
	fp.s.AddClause(append(fp.negLits(f, lits), -b)...)
	return b
}

// solve runs one counted query.
func (fp *frameProver) solve(assume ...int) sat.Result {
	fp.queries++
	r := fp.s.Solve(assume...)
	if r.Status == sat.Unknown {
		fp.unknown++
	}
	return r
}

// settle computes the largest set of outputs whose drive clauses can
// be enforced together in every frame: it assumes !dis for every
// output and, while the solver refutes the set, drops the dis literals
// named in the refutation core. Outputs dropped here are
// unconditionally contended — always-on shorts the static pass already
// reports — and excluding them keeps one bad node from making every
// other query vacuously unsat.
func (fp *frameProver) settle() {
	dropped := map[int]bool{}
	all := func() []int {
		var assume []int
		for f := range fp.disOf {
			for _, o := range fp.scope.outputs {
				if d := fp.disOf[f][o]; !dropped[d] {
					assume = append(assume, -d)
				}
			}
		}
		return assume
	}
	for {
		assume := all()
		if len(assume) == 0 {
			break
		}
		r := fp.solve(assume...)
		if r.Status == sat.Sat {
			break
		}
		progress := false
		for _, l := range r.Core {
			if l < 0 && !dropped[-l] {
				dropped[-l] = true
				progress = true
			}
		}
		if !progress {
			// Unknown, or a core with no dis literal (cannot happen: the
			// clause set alone is satisfied by all-dis-true). Drop
			// everything rather than loop forever.
			for f := range fp.disOf {
				for _, o := range fp.scope.outputs {
					dropped[fp.disOf[f][o]] = true
				}
			}
		}
	}
	fp.consistent = all()
}

// consistExcept returns the consistency assumptions, releasing the
// given outputs (nets on a queried short path, which are legitimately
// contended in the scenario under test); a released subset comes back
// sorted ascending.
func (fp *frameProver) consistExcept(release map[string]bool) []int {
	if len(release) == 0 {
		return fp.consistent
	}
	drop := map[int]bool{}
	for o := range release {
		for f := range fp.disOf {
			if d, ok := fp.disOf[f][o]; ok {
				drop[-d] = true
			}
		}
	}
	out := make([]int, 0, len(fp.consistent))
	for _, l := range fp.consistent {
		if !drop[l] {
			out = append(out, l)
		}
	}
	sort.Ints(out)
	return out
}

// fallLits is the "output o falls across the edge" assumption pair:
// high in frame 0, low in frame 1.
func (fp *frameProver) fallLits(o string) []int {
	return []int{fp.varOf[0][o], -fp.varOf[1][o]}
}

// canFall asks whether output o can fall at all across one input
// edge.
func (fp *frameProver) canFall(o string) sat.Result {
	return fp.solve(append(fp.fallLits(o), fp.consistent...)...)
}

// exclusive asks whether outputs g and h can both fall across the
// same input edge: Unsat proves them mutually exclusive.
func (fp *frameProver) exclusive(g, h string) sat.Result {
	assume := append(fp.fallLits(g), fp.fallLits(h)...)
	return fp.solve(append(assume, fp.consistent...)...)
}

// truncated lists, sorted, the encoded outputs whose path enumeration
// hit a cap: their drive clauses are incomplete — conservatively
// weaker, never unsound.
func (fp *frameProver) truncated() []string {
	var out []string
	for _, o := range fp.scope.outputs {
		if fp.cc.pathsOf(o).capped > 0 {
			out = append(out, o)
		}
	}
	return out
}

// frameModel extracts one frame's net assignment from a Sat result,
// for switch-level replay.
func (fp *frameProver) frameModel(r *sat.Result, frame int) Witness {
	var w Witness
	for v := 1; v < len(fp.vars); v++ {
		if fv := fp.vars[v]; fv.net != "" && fv.frame == frame {
			w = append(w, NetValue{Net: fv.net, Value: r.Value(v)})
		}
	}
	sort.Slice(w, func(i, j int) bool { return w[i].Net < w[j].Net })
	return w
}
