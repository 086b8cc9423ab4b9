// Package hierarchy implements hierarchical sleep-transistor sizing
// based on mutually exclusive discharge patterns — the extension the
// DAC'97 paper's authors published as their DAC'98 follow-up ("MTCMOS
// Hierarchical Sizing Based on Mutual Exclusive Discharge Patterns",
// Kao, Narendra, Chandrakasan).
//
// The idea: a single sleep transistor must carry the *sum* of all
// simultaneous discharge currents, but a circuit partitioned into
// blocks can gate each block separately — and blocks whose discharge
// windows never overlap (e.g. successive stages of a ripple-carry
// chain) can share one device sized for the *maximum* of their needs
// rather than the sum. The switch-level simulator supplies the
// discharge windows (core.Result.Activity); this package builds the
// overlap graph, greedily groups compatible blocks, sizes each group
// for a virtual-ground bounce budget, and can apply the resulting
// multi-domain plan to the circuit for verification.
//
// It shares the static analyzer's machinery rather than repeating it:
// PartitionByLevel bins gates by sca.Levelize's depth, and Analyze
// groups blocks with sca.GroupWidest, the widest-first rule the SAT
// exclusion refinement groups proven-exclusive gates with — here the
// evidence that two blocks never discharge together is simulated
// rather than proven.
package hierarchy

import (
	"fmt"
	"sort"

	"mtcmos/internal/circuit"
	"mtcmos/internal/core"
	"mtcmos/internal/mosfet"
	"mtcmos/internal/sca"
)

// Config controls the analysis.
type Config struct {
	// Blocks holds gate IDs per block. Use PartitionByLevel or
	// PartitionByPrefix to build one, or supply your own.
	Blocks [][]int

	// MaxBounce is the virtual-ground budget each group is sized for
	// (default 50mV, the paper's running figure).
	MaxBounce float64

	// Sim options forwarded to the switch-level simulator.
	Sim core.Options
}

// Plan is the hierarchical sizing outcome.
type Plan struct {
	// Groups lists the block indices merged into each sleep domain.
	Groups [][]int
	// GroupWL is the sleep W/L of each group's shared device.
	GroupWL []float64
	// BlockWL is the standalone requirement of each block.
	BlockWL []float64
	// BlockPeakI is each block's worst simultaneous discharge current.
	BlockPeakI []float64
	// Overlap[i][j] reports whether blocks i and j ever discharge at
	// the same time under the analyzed transitions.
	Overlap [][]bool

	// TotalWL is the summed W/L of the hierarchical plan's devices;
	// SingleWL is the size one shared device would need for the same
	// bounce budget; PerBlockWL is the total without merging. The
	// hierarchical saving is SingleWL (or PerBlockWL) vs TotalWL.
	TotalWL    float64
	SingleWL   float64
	PerBlockWL float64
}

// PartitionByLevel groups gates by topological depth (sca.Levelize's
// latest-arrival level) into nLevels blocks — the natural partition
// for ripple/array structures whose stages discharge in sequence.
func PartitionByLevel(c *circuit.Circuit, nLevels int) ([][]int, error) {
	if nLevels < 1 {
		return nil, fmt.Errorf("hierarchy: need at least one level")
	}
	l, err := sca.Levelize(c)
	if err != nil {
		return nil, err
	}
	blocks := make([][]int, nLevels)
	for _, g := range c.Gates {
		b := (l.Depth[g.ID] - 1) * nLevels / l.NumLevels()
		blocks[b] = append(blocks[b], g.ID)
	}
	// Drop empty blocks.
	out := blocks[:0]
	for _, b := range blocks {
		if len(b) > 0 {
			out = append(out, b)
		}
	}
	return out, nil
}

// PartitionByPrefix groups gates by a name prefix extracted with fn
// (e.g. the full-adder instance name); gates mapping to "" share a
// catch-all block.
func PartitionByPrefix(c *circuit.Circuit, fn func(gateName string) string) [][]int {
	byKey := map[string][]int{}
	var keys []string
	for _, g := range c.Gates {
		k := fn(g.Name)
		if _, ok := byKey[k]; !ok {
			keys = append(keys, k)
		}
		byKey[k] = append(byKey[k], g.ID)
	}
	sort.Strings(keys)
	out := make([][]int, 0, len(keys))
	for _, k := range keys {
		out = append(out, byKey[k])
	}
	return out
}

// Analyze runs the switch-level simulator over the transitions with
// activity recording, computes per-block discharge requirements and
// the pairwise overlap relation, greedily merges compatible blocks,
// and sizes every group for the bounce budget.
func Analyze(c *circuit.Circuit, cfg Config, trs []circuit.Transition) (*Plan, error) {
	if len(cfg.Blocks) == 0 {
		return nil, fmt.Errorf("hierarchy: no blocks configured")
	}
	if len(trs) == 0 {
		return nil, fmt.Errorf("hierarchy: no transitions to analyze")
	}
	if cfg.MaxBounce <= 0 {
		cfg.MaxBounce = 0.05
	}
	blockOf := make([]int, len(c.Gates))
	for i := range blockOf {
		blockOf[i] = -1
	}
	for b, ids := range cfg.Blocks {
		for _, id := range ids {
			if id < 0 || id >= len(c.Gates) {
				return nil, fmt.Errorf("hierarchy: block %d references unknown gate %d", b, id)
			}
			if blockOf[id] != -1 {
				return nil, fmt.Errorf("hierarchy: gate %d in two blocks", id)
			}
			blockOf[id] = b
		}
	}
	for id, b := range blockOf {
		if b == -1 {
			return nil, fmt.Errorf("hierarchy: gate %d (%s) not assigned to any block", id, c.Gates[id].Name)
		}
	}

	nb := len(cfg.Blocks)
	plan := &Plan{
		BlockWL:    make([]float64, nb),
		BlockPeakI: make([]float64, nb),
		Overlap:    make([][]bool, nb),
	}
	for i := range plan.Overlap {
		plan.Overlap[i] = make([]bool, nb)
	}

	cp, err := core.Compile(c)
	if err != nil {
		return nil, err
	}
	eq := c.Equiv()
	// Per-gate discharge current at full drive (the CMOS saturation
	// current of the equivalent pulldown).
	igate := make([]float64, len(c.Gates))
	for i := range c.Gates {
		sol := mosfet.Equilibrium(c.Tech, 0, []float64{eq[i].BetaN}, false)
		igate[i] = sol.Itotal
	}

	totalPeak := 0.0
	opts := cfg.Sim
	opts.RecordActivity = true
	for _, tr := range trs {
		// Measure activity in plain-CMOS mode: worst-case current
		// overlap (a sleep device would spread the windows, which only
		// reduces instantaneous overlap current).
		res, err := cp.RunWL(0, tr.Stimulus(), opts)
		if err != nil {
			return nil, fmt.Errorf("hierarchy: transition %s: %w", tr.Label, err)
		}
		// Sweep the event timeline: at each activity edge, recompute
		// per-block concurrent currents.
		type edge struct {
			t     float64
			gate  int
			start bool
		}
		var edges []edge
		for g, ivs := range res.Activity {
			for _, iv := range ivs {
				edges = append(edges, edge{iv.Start, g, true}, edge{iv.End, g, false})
			}
		}
		sort.Slice(edges, func(i, j int) bool {
			if edges[i].t != edges[j].t {
				return edges[i].t < edges[j].t
			}
			return !edges[i].start && edges[j].start // process ends first
		})
		cur := make([]float64, nb)
		active := make([]int, nb)
		total := 0.0
		for _, e := range edges {
			b := blockOf[e.gate]
			if e.start {
				cur[b] += igate[e.gate]
				active[b]++
				total += igate[e.gate]
			} else {
				cur[b] -= igate[e.gate]
				active[b]--
				total -= igate[e.gate]
			}
			if cur[b] > plan.BlockPeakI[b] {
				plan.BlockPeakI[b] = cur[b]
			}
			if total > totalPeak {
				totalPeak = total
			}
			if e.start {
				for ob := 0; ob < nb; ob++ {
					if ob != b && active[ob] > 0 {
						plan.Overlap[b][ob] = true
						plan.Overlap[ob][b] = true
					}
				}
			}
		}
	}

	// Size: W/L such that R = MaxBounce / Ipeak.
	wlFor := func(ipeak float64) (float64, error) {
		if ipeak <= 0 {
			return 0, nil
		}
		return mosfet.SleepWLForResistance(c.Tech, cfg.MaxBounce/ipeak)
	}
	for b := 0; b < nb; b++ {
		wl, err := wlFor(plan.BlockPeakI[b])
		if err != nil {
			return nil, err
		}
		plan.BlockWL[b] = wl
		plan.PerBlockWL += wl
	}
	single, err := wlFor(totalPeak)
	if err != nil {
		return nil, err
	}
	plan.SingleWL = single

	// Greedy grouping, the exclusion refinement's rule (sca.GroupWidest):
	// largest blocks first; a block joins a group only if it overlaps
	// none of its members. Group device = its widest, first, member.
	blocks := make([]int, nb)
	for i := range blocks {
		blocks[i] = i
	}
	plan.Groups = sca.GroupWidest(blocks,
		func(b int) float64 { return plan.BlockWL[b] },
		func(a, b int) bool { return !plan.Overlap[a][b] })
	for _, grp := range plan.Groups {
		wl := plan.BlockWL[grp[0]]
		plan.GroupWL = append(plan.GroupWL, wl)
		plan.TotalWL += wl
	}
	return plan, nil
}

// Apply configures the circuit's sleep domains per the plan: one
// domain per group, every gate assigned to its group's domain. The
// circuit's previous domain configuration is replaced; domain 0 takes
// the first group.
func Apply(c *circuit.Circuit, cfg Config, plan *Plan) error {
	if len(plan.Groups) == 0 {
		return fmt.Errorf("hierarchy: empty plan")
	}
	blockDomain := make(map[int]int)
	for gi, grp := range plan.Groups {
		for _, b := range grp {
			blockDomain[b] = gi
		}
	}
	c.SleepWL = plan.GroupWL[0]
	for gi := 1; gi < len(plan.Groups); gi++ {
		c.AddDomain(circuit.Domain{
			Name:    fmt.Sprintf("grp%d", gi),
			SleepWL: plan.GroupWL[gi],
		})
	}
	for b, ids := range cfg.Blocks {
		dom := blockDomain[b]
		for _, id := range ids {
			c.Gates[id].Domain = dom
		}
	}
	return nil
}
