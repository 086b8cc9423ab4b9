package sca

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"

	"mtcmos/internal/circuit"
	"mtcmos/internal/sat"
	"mtcmos/internal/sched"
	"mtcmos/internal/simerr"
)

// SAT-backed mutual-exclusion refinement of the static sleep-sizing
// bound (DESIGN.md §11). The PR 2 bound charges every gate whose
// arrival window covers a level to that level's width: it assumes any
// two window-sharing gates can discharge in the same cycle. Many
// cannot — an inverter and its driver, a carry and its complement, the
// two branches of a decoded select — and for those the sleep device
// only ever carries the larger of the two currents. This engine proves
// such pairs mutually exclusive with the two-frame SAT encoding
// (cones.go) over the circuit's expanded transistor deck, and lets
// exclusive gates contribute max instead of sum to their window's
// width:
//
//	SimultaneousWidth ≤ RefinedLevelBound ≤ StaticLevelBound ≤ SumOfWidths
//
// The refinement is sound under the same unit-delay, settled-state
// abstraction the PR 2 bound already relies on (a glitching gate can
// briefly discharge outside its steady-state behavior; DESIGN.md §11
// gives the argument and the empirical validation). Every budget
// (MaxPairs, MaxConflicts, path caps) fails toward the PR 2 answer:
// a pair the engine cannot afford to prove stays non-exclusive.

// Exclusion-engine chunk sizes: queries are partitioned into
// fixed-size chunks in a deterministic order and fanned out on
// sched.Map, each chunk with its own solver, so results are
// byte-identical at any worker count.
const (
	exclChunkGates = 32
	exclChunkPairs = 64
)

// ExclConfig tunes the mutual-exclusion refinement.
type ExclConfig struct {
	// Graph carries the path-enumeration caps for the deck analysis
	// (zero fields take the Config defaults).
	Graph Config

	// MaxPairs budgets the SAT pair queries (default 4096). Candidate
	// pairs beyond it are conservatively kept non-exclusive and counted
	// in Stats.TruncatedPairs.
	MaxPairs int

	// MaxConflicts bounds each SAT query (default 20000 conflicts); an
	// exhausted query returns Unknown and the pair stays non-exclusive.
	MaxConflicts int

	// Vectors is the number of random vector pairs the simulation
	// prefilter evaluates before any SAT work (default 64); every pair
	// of gates observed falling together is refuted without a query.
	Vectors int

	// Seed drives the prefilter's vector generator (default 1).
	Seed uint64

	// Workers bounds the sched.Map fan-out (0 = one per CPU, 1 =
	// serial). Results are identical for any value.
	Workers int

	// Ctx carries the run's context into both fan-outs; the witness
	// replays run inside the first. Once it fires, RefineLevels returns
	// the failure simerr.FromContext classifies instead of falling back
	// to the static bound.
	Ctx context.Context
}

func (c ExclConfig) withDefaults() ExclConfig {
	c.Graph = c.Graph.withDefaults()
	if c.MaxPairs <= 0 {
		c.MaxPairs = 4096
	}
	if c.MaxConflicts <= 0 {
		c.MaxConflicts = 20000
	}
	if c.Vectors <= 0 {
		c.Vectors = 64
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// ExclusionStats summarizes one refinement run. Budget truncation is
// explicit: TruncatedPairs and PathTruncated both mean "the proof is
// incomplete and the affected gates kept the PR 2 answer", never that
// an unproven exclusion was used.
type ExclusionStats struct {
	Gates            int    `json:"gates"`             // gates considered (window members with pulldown width)
	CandidatePairs   int    `json:"candidate_pairs"`   // window-sharing pairs worth proving
	PrefilterRefuted int    `json:"prefilter_refuted"` // pairs killed by vector simulation before SAT
	Queried          int    `json:"queried"`           // pairs that reached a SAT query
	Proven           int    `json:"proven"`            // pairs proven mutually exclusive
	Unknown          int    `json:"unknown"`           // solver calls that exhausted MaxConflicts
	CannotFall       int    `json:"cannot_fall"`       // gates whose output provably never falls
	TruncatedPairs   int    `json:"truncated_pairs"`   // candidate pairs dropped by the MaxPairs budget
	PathTruncated    int    `json:"path_truncated"`    // outputs whose path enumeration hit a cap
	ReplayChecked    int    `json:"replay_checked"`    // fall witnesses replayed at switch level
	ReplayFailed     int    `json:"replay_failed"`     // witnesses the replay rejected (gate excluded from refinement)
	Queries          int    `json:"queries"`           // total SAT Solve calls
	Fallback         string `json:"fallback,omitempty"`
}

// ExclusivePair is one proven mutual exclusion, by gate name (A is the
// lower gate ID).
type ExclusivePair struct {
	A string `json:"a"`
	B string `json:"b"`
}

// rGate is the engine's per-gate record.
type rGate struct {
	name       string
	net        string // deck output net (circuit.NetlistNode of the gate output)
	width      float64
	min, depth int
	domain     int
	cannotFall bool // proven: exclusive with everything
	dropped    bool // replay rejected its witness: exclusive with nothing
}

// Refinement is the result of RefineLevels: the per-level refined
// widths and the evidence behind them.
type Refinement struct {
	Levels *Levels

	// StaticWidths / StaticWL / StaticAt restate the PR 2 bound the
	// refinement starts from (whole circuit, domain -1).
	StaticWidths []float64
	StaticWL     float64
	StaticAt     int // 1-based level of the static maximum

	// Refined holds the per-level widths with exclusive gates
	// contributing max instead of sum; WL/Level is its maximum. By
	// construction Refined[l] ≤ StaticWidths[l] for every level.
	Refined []float64
	WL      float64
	Level   int // 1-based level of the refined maximum

	// Pairs lists every proven exclusion, sorted, for reporting and
	// lint evidence.
	Pairs []ExclusivePair

	Stats ExclusionStats

	gates []rGate
	excl  map[[2]int]bool
}

// RefinedLevelBound computes the refined simultaneous-discharge width
// bound of a circuit under the default configuration.
func RefinedLevelBound(c *circuit.Circuit) (float64, error) {
	r, err := RefineLevels(c, ExclConfig{})
	if err != nil {
		return 0, err
	}
	return r.WL, nil
}

// RefineLevels runs the mutual-exclusion refinement over a gate-level
// circuit: levelize, expand to a transistor deck, prove window-sharing
// gate pairs mutually exclusive, and recompute the per-level widths
// with exclusive gates contributing max instead of sum.
//
// Results are deterministic and worker-count-invariant: candidate
// pairs are ordered and chunked before the fan-out, every chunk builds
// its own solver, and sched.Map merges in index order. Any failure to
// build or analyze the deck degrades to the unrefined PR 2 bound
// (Stats.Fallback says why) rather than erroring: the refinement is an
// optimization, never a correctness gate. The one exception is a fired
// cfg.Ctx, which RefineLevels returns as a classified error.
func RefineLevels(c *circuit.Circuit, cfg ExclConfig) (*Refinement, error) {
	cfg = cfg.withDefaults()
	l, err := Levelize(c)
	if err != nil {
		return nil, err
	}
	r := &Refinement{
		Levels:       l,
		StaticWidths: l.WidthByLevel(c, -1),
		excl:         map[[2]int]bool{},
	}
	r.StaticWL, r.StaticAt = l.MaxLevelWidth(c, -1)
	r.gates = make([]rGate, len(c.Gates))
	for id, g := range c.Gates {
		r.gates[id] = rGate{
			name:   g.Name,
			net:    circuit.NetlistNode(g.Out.Name),
			width:  g.NMOSWidthWL(),
			min:    l.Min[id],
			depth:  l.Depth[id],
			domain: g.Domain,
		}
	}

	fallback := func(why string) *Refinement {
		r.Stats.Fallback = why
		r.excl = map[[2]int]bool{}
		for i := range r.gates {
			r.gates[i].cannotFall = false
		}
		r.recompute()
		return r
	}

	pairs := r.candidatePairs()
	r.Stats.CandidatePairs = len(pairs)
	r.Stats.Gates = r.countGates(pairs)
	if len(pairs) == 0 {
		r.recompute()
		return r, nil
	}

	a, err := expandForExclusion(c)
	if err != nil {
		return fallback(err.Error()), nil
	}

	// Stage 1: vector-simulation prefilter. Any pair observed falling
	// together under a concrete vector pair is refuted for free.
	pairs, err = r.prefilter(c, cfg, pairs)
	if err != nil {
		return fallback(err.Error()), nil
	}

	// Stages 2 and 3: fall analysis, then the pair proofs. A fired
	// context is the caller's stop, not a proof failure to degrade on.
	if err := r.prove(newConeCache(a), cfg, pairs); err != nil {
		if k := simerr.Kind(err); k == simerr.ErrCancelled || k == simerr.ErrBudget {
			return nil, err
		}
		return fallback(err.Error()), nil
	}

	r.recompute()
	return r, nil
}

// prove is the proof pipeline RefineLevels and RefineDeck share. Stage
// 2 asks, per gate, whether its output can fall at all (chunked SAT +
// switch-level replay of every witness): gates whose witness fails
// replay are dropped from the refinement; gates that provably cannot
// fall are exclusive with everything. Stage 3 runs the remaining pair
// queries, budgeted by MaxPairs in the given order and chunked. The
// chunks share one cone cache, so every output's paths are enumerated
// once.
func (r *Refinement) prove(cc *coneCache, cfg ExclConfig, pairs [][2]int) error {
	if err := r.fallAnalysis(cc, cfg, pairs); err != nil {
		return err
	}
	pairs = r.dropIneligible(pairs)
	if len(pairs) > cfg.MaxPairs {
		r.Stats.TruncatedPairs = len(pairs) - cfg.MaxPairs
		pairs = pairs[:cfg.MaxPairs]
	}
	return r.provePairs(cc, cfg, pairs)
}

// candidatePairs returns every gate pair worth proving: overlapping
// arrival windows and nonzero pulldown width on both sides, ordered by
// descending combined width (the pairs that can tighten the bound
// most) with gate-ID tie-breaks.
func (r *Refinement) candidatePairs() [][2]int {
	var pairs [][2]int
	for i := range r.gates {
		if r.gates[i].width <= 0 {
			continue
		}
		for j := i + 1; j < len(r.gates); j++ {
			if r.gates[j].width <= 0 {
				continue
			}
			lo := max(r.gates[i].min, r.gates[j].min)
			hi := min(r.gates[i].depth, r.gates[j].depth)
			if lo <= hi {
				pairs = append(pairs, [2]int{i, j})
			}
		}
	}
	sort.Slice(pairs, func(x, y int) bool {
		wx := r.gates[pairs[x][0]].width + r.gates[pairs[x][1]].width
		wy := r.gates[pairs[y][0]].width + r.gates[pairs[y][1]].width
		if wx != wy {
			return wx > wy
		}
		if pairs[x][0] != pairs[y][0] {
			return pairs[x][0] < pairs[y][0]
		}
		return pairs[x][1] < pairs[y][1]
	})
	return pairs
}

func (r *Refinement) countGates(pairs [][2]int) int {
	seen := map[int]bool{}
	for _, p := range pairs {
		seen[p[0]] = true
		seen[p[1]] = true
	}
	return len(seen)
}

// expandForExclusion builds the static analysis of the circuit's
// transistor deck with every sleep device removed (SleepWL forced to
// 0, then restored): the exclusion engine reasons about the logic, and
// a virtual-ground rail would channel-connect every pulldown network
// into one giant component.
func expandForExclusion(c *circuit.Circuit) (*Analysis, error) {
	doms := c.Domains()
	saved := make([]float64, len(doms))
	for i, d := range doms {
		saved[i] = d.SleepWL
		if err := c.SetDomainWL(i, 0); err != nil {
			return nil, fmt.Errorf("sca: neutralize domain %d: %w", i, err)
		}
	}
	defer func() {
		for i, wl := range saved {
			c.SetDomainWL(i, wl)
		}
	}()

	// Every input switches low→high so each one becomes a PWL source —
	// a signal rail, i.e. a free SAT variable. The edge timing is
	// irrelevant: only the deck's topology is analyzed.
	stim := circuit.Stimulus{Old: map[string]bool{}, New: map[string]bool{}, TEdge: 1e-9, TRise: 50e-12}
	for _, in := range c.Inputs {
		stim.Old[in.Name] = false
		stim.New[in.Name] = true
	}
	nl, err := c.Netlist(stim)
	if err != nil {
		return nil, fmt.Errorf("sca: expand: %w", err)
	}
	flat, err := nl.Flatten()
	if err != nil {
		return nil, fmt.Errorf("sca: flatten: %w", err)
	}
	return Analyze(flat, Config{}), nil
}

// splitmix64 is the standard 64-bit mix, used to derive deterministic
// prefilter vectors.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// prefilter refutes candidate pairs by direct logic evaluation: for a
// deterministic family of vector pairs (the all-off→all-on edge, its
// reverse, and cfg.Vectors random pairs) it computes which gates fall,
// and removes every candidate observed falling together. Surviving
// pairs keep their order.
func (r *Refinement) prefilter(c *circuit.Circuit, cfg ExclConfig, pairs [][2]int) ([][2]int, error) {
	inCandidate := map[int]bool{}
	for _, p := range pairs {
		inCandidate[p[0]] = true
		inCandidate[p[1]] = true
	}

	cofall := map[[2]int]bool{}
	apply := func(v0, v1 map[string]bool) error {
		e0, err := c.Evaluate(v0)
		if err != nil {
			return err
		}
		e1, err := c.Evaluate(v1)
		if err != nil {
			return err
		}
		var falls []int
		for id, g := range c.Gates {
			if inCandidate[id] && e0[g.Out.Name] && !e1[g.Out.Name] {
				falls = append(falls, id)
			}
		}
		for x := 0; x < len(falls); x++ {
			for y := x + 1; y < len(falls); y++ {
				cofall[[2]int{falls[x], falls[y]}] = true
			}
		}
		return nil
	}

	all := func(v bool) map[string]bool {
		m := map[string]bool{}
		for _, in := range c.Inputs {
			m[in.Name] = v
		}
		return m
	}
	if err := apply(all(false), all(true)); err != nil {
		return nil, err
	}
	if err := apply(all(true), all(false)); err != nil {
		return nil, err
	}
	for k := 0; k < cfg.Vectors; k++ {
		v0, v1 := map[string]bool{}, map[string]bool{}
		for i, in := range c.Inputs {
			h := splitmix64(cfg.Seed ^ uint64(k+1)<<32 ^ uint64(i))
			v0[in.Name] = h&1 != 0
			v1[in.Name] = h&2 != 0
		}
		if err := apply(v0, v1); err != nil {
			return nil, err
		}
	}

	kept := pairs[:0]
	for _, p := range pairs {
		if cofall[p] {
			r.Stats.PrefilterRefuted++
			continue
		}
		kept = append(kept, p)
	}
	return kept, nil
}

// fallVerdict is one gate's fall analysis from a chunk.
type fallVerdict struct {
	id        int
	status    sat.Status
	replayOK  bool // when Sat: the witness passed switch-level replay
	queries   int
	unknown   int
	truncated []string // truncated output nets in the chunk's scope
}

// fallAnalysis asks, per gate involved in a surviving pair, whether
// its output can fall at all, and replays every Sat witness through
// the independent switch-level harness. Chunks of gates fan out on
// sched.Map; each chunk owns its solver and replays its own witnesses
// against the shared, read-only analysis.
func (r *Refinement) fallAnalysis(cc *coneCache, cfg ExclConfig, pairs [][2]int) error {
	idSet := map[int]bool{}
	for _, p := range pairs {
		idSet[p[0]] = true
		idSet[p[1]] = true
	}
	ids := make([]int, 0, len(idSet))
	for id := range idSet {
		ids = append(ids, id)
	}
	sort.Ints(ids)

	chunks := chunkInts(ids, exclChunkGates)
	results, err := sched.Map(cfg.Ctx, sched.Workers(cfg.Workers), len(chunks), func(ci int) ([]fallVerdict, error) {
		chunk := chunks[ci]
		roots := make([]string, len(chunk))
		for i, id := range chunk {
			roots[i] = r.gates[id].net
		}
		fp := newFrameProver(cc, cc.cone(roots), 2, cfg.MaxConflicts)
		out := make([]fallVerdict, 0, len(chunk))
		for _, id := range chunk {
			net := r.gates[id].net
			res := fp.canFall(net)
			v := fallVerdict{id: id, status: res.Status}
			if res.Status == sat.Sat {
				v.replayOK = replayFall(cc.a, net, fp.frameModel(&res, 0), fp.frameModel(&res, 1))
			}
			out = append(out, v)
		}
		if len(out) > 0 {
			out[0].queries = fp.queries
			out[0].unknown = fp.unknown
			out[0].truncated = fp.truncated()
		}
		return out, nil
	})
	if err != nil {
		return err
	}

	truncated := map[string]bool{}
	for _, vs := range results {
		for _, v := range vs {
			r.Stats.Queries += v.queries
			r.Stats.Unknown += v.unknown
			for _, o := range v.truncated {
				truncated[o] = true
			}
			g := &r.gates[v.id]
			switch v.status {
			case sat.Unsat:
				// The output can never fall across any settled edge: it
				// never discharges, so it is exclusive with everything.
				g.cannotFall = true
				r.Stats.CannotFall++
			case sat.Sat:
				// The chunk spot-validated the witness with the
				// independent replay: frame 0 must drive the output high,
				// frame 1 low, and both frames must be internally
				// consistent. A gate whose witness the replay rejects is
				// dropped from the refinement entirely (encoder distrust
				// ⇒ the unrefined answer).
				r.Stats.ReplayChecked++
				if !v.replayOK {
					g.dropped = true
					r.Stats.ReplayFailed++
				}
			default:
				// Unknown: the gate may or may not fall; keep it, its
				// pairs are still individually provable.
			}
		}
	}
	r.Stats.PathTruncated = len(truncated)
	return nil
}

// replayFall validates a fall witness at switch level: the two frame
// models must check out independently, with the output driven high
// before the edge and low after it.
func replayFall(a *Analysis, net string, m0, m1 Witness) bool {
	r0 := a.Replay(m0)
	if r0.CheckModel() != nil || r0.State(net) != StateHigh {
		return false
	}
	r1 := a.Replay(m1)
	return r1.CheckModel() == nil && r1.State(net) == StateLow
}

// dropIneligible removes pairs whose members were dropped by replay or
// whose exclusivity is already decided (cannot-fall members need no
// query).
func (r *Refinement) dropIneligible(pairs [][2]int) [][2]int {
	kept := pairs[:0]
	for _, p := range pairs {
		ga, gb := r.gates[p[0]], r.gates[p[1]]
		if ga.dropped || gb.dropped || ga.cannotFall || gb.cannotFall {
			continue
		}
		kept = append(kept, p)
	}
	return kept
}

// pairVerdict is one exclusion query's outcome from a chunk.
type pairVerdict struct {
	pair      [2]int
	exclusive bool
	queries   int
	unknown   int
}

// provePairs runs the budgeted exclusion queries in deterministic
// fixed-size chunks on sched.Map.
func (r *Refinement) provePairs(cc *coneCache, cfg ExclConfig, pairs [][2]int) error {
	chunks := chunkPairs(pairs, exclChunkPairs)
	results, err := sched.Map(cfg.Ctx, sched.Workers(cfg.Workers), len(chunks), func(ci int) ([]pairVerdict, error) {
		chunk := chunks[ci]
		rootSet := map[string]bool{}
		for _, p := range chunk {
			rootSet[r.gates[p[0]].net] = true
			rootSet[r.gates[p[1]].net] = true
		}
		fp := newFrameProver(cc, cc.cone(sortedKeys(rootSet)), 2, cfg.MaxConflicts)
		out := make([]pairVerdict, 0, len(chunk))
		for _, p := range chunk {
			res := fp.exclusive(r.gates[p[0]].net, r.gates[p[1]].net)
			out = append(out, pairVerdict{pair: p, exclusive: res.Status == sat.Unsat})
		}
		if len(out) > 0 {
			out[0].queries = fp.queries
			out[0].unknown = fp.unknown
		}
		return out, nil
	})
	if err != nil {
		return err
	}
	for _, vs := range results {
		for _, v := range vs {
			r.Stats.Queries += v.queries
			r.Stats.Unknown += v.unknown
			r.Stats.Queried++
			if v.exclusive {
				r.excl[v.pair] = true
				r.Stats.Proven++
			}
		}
	}
	return nil
}

// exclusiveGates reports whether two gates were proven mutually
// exclusive (a cannot-fall gate is exclusive with everything).
func (r *Refinement) exclusiveGates(a, b int) bool {
	ga, gb := r.gates[a], r.gates[b]
	if ga.cannotFall || gb.cannotFall {
		return true
	}
	if a > b {
		a, b = b, a
	}
	return r.excl[[2]int{a, b}]
}

// recompute derives the refined per-level widths and the evidence list
// from the proven exclusions.
func (r *Refinement) recompute() {
	r.Refined = make([]float64, len(r.StaticWidths))
	r.WL, r.Level = 0, 0
	for li := range r.Refined {
		var members []int
		for id, g := range r.gates {
			if g.width > 0 && g.min <= li+1 && li+1 <= g.depth {
				members = append(members, id)
			}
		}
		w := r.groupMax(members)
		if w > r.StaticWidths[li] {
			w = r.StaticWidths[li] // cannot happen; keep the invariant airtight
		}
		r.Refined[li] = w
		if w > r.WL {
			r.WL, r.Level = w, li+1
		}
	}

	r.Pairs = r.Pairs[:0]
	keys := make([][2]int, 0, len(r.excl))
	for k := range r.excl {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		r.Pairs = append(r.Pairs, ExclusivePair{A: r.gates[k[0]].name, B: r.gates[k[1]].name})
	}
}

// groupMax returns Σ over the GroupWidest groups of the members of
// each group's widest member: with no exclusions every gate is its own
// group and the result is the plain sum.
//
// Soundness: gates discharging at one instant are pairwise
// NON-exclusive, so at most one of them sits in any group, and the
// per-group max charges for it.
func (r *Refinement) groupMax(members []int) float64 {
	width := func(id int) float64 { return r.gates[id].width }
	total := 0.0
	for _, grp := range GroupWidest(members, width, r.exclusiveGates) {
		total += width(grp[0])
	}
	return total
}

// GroupWidest greedily partitions members into groups of pairwise
// compatible members and returns them: widest first, ties in ascending
// member order, each member joins the first group it is compatible
// with throughout, or opens a new one. A group's first member is its
// widest. The order is deterministic, and members is not modified.
func GroupWidest(members []int, width func(int) float64, compatible func(a, b int) bool) [][]int {
	order := slices.Clone(members)
	sort.Slice(order, func(i, j int) bool {
		wi, wj := width(order[i]), width(order[j])
		if wi != wj {
			return wi > wj
		}
		return order[i] < order[j]
	})
	var groups [][]int
	for _, m := range order {
		placed := false
		for gi, grp := range groups {
			ok := true
			for _, other := range grp {
				if !compatible(m, other) {
					ok = false
					break
				}
			}
			if ok {
				groups[gi] = append(groups[gi], m)
				placed = true
				break
			}
		}
		if !placed {
			groups = append(groups, []int{m})
		}
	}
	return groups
}

// DomainBound recomputes the refined per-level bound restricted to one
// sleep domain (domain < 0 = whole circuit): the refined counterpart
// of Levels.MaxLevelWidth, reusing the proven exclusions.
func (r *Refinement) DomainBound(domain int) (bound float64, level int) {
	for li := range r.StaticWidths {
		var members []int
		for id, g := range r.gates {
			if domain >= 0 && g.domain != domain {
				continue
			}
			if g.width > 0 && g.min <= li+1 && li+1 <= g.depth {
				members = append(members, id)
			}
		}
		if w := r.groupMax(members); w > bound {
			bound, level = w, li+1
		}
	}
	return bound, level
}

// PairsFor renders up to n proven exclusions involving gates of the
// given domain (domain < 0 = any) as "a × b" evidence strings.
func (r *Refinement) PairsFor(domain, n int) []string {
	var out []string
	for k := range r.excl {
		ga, gb := r.gates[k[0]], r.gates[k[1]]
		if domain >= 0 && ga.domain != domain && gb.domain != domain {
			continue
		}
		out = append(out, ga.name+" × "+gb.name)
	}
	sort.Strings(out)
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// chunkInts splits ids into fixed-size chunks; the partition depends
// only on the input order, never on worker count.
func chunkInts(ids []int, size int) [][]int {
	var chunks [][]int
	for len(ids) > 0 {
		n := min(size, len(ids))
		chunks = append(chunks, ids[:n])
		ids = ids[n:]
	}
	return chunks
}

func chunkPairs(pairs [][2]int, size int) [][][2]int {
	var chunks [][][2]int
	for len(pairs) > 0 {
		n := min(size, len(pairs))
		chunks = append(chunks, pairs[:n])
		pairs = pairs[n:]
	}
	return chunks
}

// --- deck-level refinement (mtlint -prove, rule MT024) ---

// DeckRefinement is the exclusion refinement of one sleep device in a
// raw deck: the discharge widths of the outputs gated by its virtual
// rail, summed naively and with proven-exclusive outputs contributing
// max instead.
type DeckRefinement struct {
	Device  string         // sleep device name
	Rail    string         // its virtual-ground rail net
	WL      float64        // the device's W/L
	Outputs []string       // discharging outputs behind the rail
	Sum     float64        // Σ per-output discharge width (the unrefined answer)
	Refined float64        // Σ over exclusion groups of the group max
	Pairs   []string       // proven exclusions, as "a × b" net pairs, sorted
	Stats   ExclusionStats // RefineLevels' proof funnel (no vector prefilter)
}

// RefineDeck runs the mutual-exclusion refinement over the analyzed
// deck itself: for every sleep device (a high-Vt NMOS strapping a
// virtual rail to ground) it identifies the outputs discharging
// through it and their discharge widths, then runs RefineLevels' proof
// pipeline and grouping over them — one gate per output, every pair a
// candidate in sorted output order, no vector prefilter (a deck has no
// gate IR to evaluate) — and reports the naive and refined
// discharge-width sums. Deterministic and worker-count-invariant, like
// RefineLevels.
func (a *Analysis) RefineDeck(cfg ExclConfig) []DeckRefinement {
	cfg = cfg.withDefaults()
	if a.flat == nil {
		return nil
	}
	wlOf := map[string]float64{}
	for _, m := range a.flat.MOS {
		if m.L > 0 {
			wlOf[m.Name] = m.W / m.L
		}
	}

	var out []DeckRefinement
	for _, m := range a.flat.MOS {
		if !isHvtModel(m.Model) || isPMOSModel(m.Model) {
			continue
		}
		rail, ok := deckBridgesLow(a, m.D, m.S)
		if !ok {
			continue
		}
		d := DeckRefinement{Device: m.Name, Rail: rail, WL: wlOf[m.Name]}
		ci := a.ComponentOf(rail)
		if ci >= 0 {
			d = a.refineDeckDomain(cfg, d, a.Components[ci])
		}
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Device < out[j].Device })
	return out
}

// refineDeckDomain proves exclusions among one virtual rail's outputs.
func (a *Analysis) refineDeckDomain(cfg ExclConfig, d DeckRefinement, c *Component) DeckRefinement {
	// Discharge width of an output: the best (series-min W/L) of its
	// enumerated pull-down paths — the current path the sleep device
	// must carry when that output discharges.
	cc := newConeCache(a)
	r := &Refinement{excl: map[[2]int]bool{}}
	for _, o := range c.Outputs {
		if o == d.Rail {
			continue
		}
		best := 0.0
		for _, sp := range cc.pathsOf(o).down {
			best = max(best, pathMinWL(a, sp, d.Device))
		}
		if best > 0 {
			d.Outputs = append(d.Outputs, o)
			r.gates = append(r.gates, rGate{name: o, net: o, width: best})
			d.Sum += best
		}
	}
	d.Refined = d.Sum
	if len(r.gates) < 2 {
		return d
	}

	var pairs [][2]int
	for i := range r.gates {
		for j := i + 1; j < len(r.gates); j++ {
			pairs = append(pairs, [2]int{i, j})
		}
	}
	r.Stats.CandidatePairs = len(pairs)
	r.Stats.Gates = len(r.gates)
	err := r.prove(cc, cfg, pairs)
	d.Stats = r.Stats
	if err != nil {
		d.Stats.Fallback = err.Error() // keep the naive sum
		return d
	}
	ids := make([]int, len(r.gates))
	for i := range ids {
		ids[i] = i
	}
	d.Refined = min(r.groupMax(ids), d.Sum)
	d.Pairs = r.PairsFor(-1, len(r.excl))
	return d
}

// pathMinWL is the series bottleneck of one conducting path: the
// smallest MOS W/L along it (resistors and unknown devices are
// ignored). The sleep device under refinement sits on every path
// through its rail and is the quantity being sized, so it is excluded
// from the bottleneck.
func pathMinWL(a *Analysis, sp symPath, skipDev string) float64 {
	wl := 0.0
	for _, m := range a.flat.MOS {
		if m.Name == skipDev {
			continue
		}
		for _, dev := range sp.devices {
			if m.Name == dev && m.L > 0 {
				w := m.W / m.L
				if wl == 0 || w < wl {
					wl = w
				}
			}
		}
	}
	return wl
}

// deckBridgesLow reports whether a channel connects a low rail to an
// ordinary net, returning that net.
func deckBridgesLow(a *Analysis, d, s string) (string, bool) {
	switch {
	case a.rails[s] == RailLow && a.rails[d] == RailNone:
		return d, true
	case a.rails[d] == RailLow && a.rails[s] == RailNone:
		return s, true
	}
	return "", false
}

// isHvtModel recognizes a high-threshold model name (the sleep-device
// archetype), matching internal/lint's convention.
func isHvtModel(model string) bool {
	model = strings.ToLower(model)
	return strings.Contains(model, "hvt") || strings.Contains(model, "high")
}
