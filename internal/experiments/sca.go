package experiments

import (
	"fmt"

	"mtcmos/internal/circuit"
	"mtcmos/internal/report"
	"mtcmos/internal/sca"
	"mtcmos/internal/sizing"
)

// SCA is the static-circuit-analysis experiment: on each benchmark it
// tabulates the three width figures the paper's §2 argument orders —
// the naive sum-of-widths, the static per-level simultaneous-discharge
// bound (topology only, no simulation), and the simultaneous-discharge
// width actually measured by the switch-level tool on stressing
// vectors — and fails if the chain
//
//	simulated width ≤ static level bound ≤ sum-of-widths
//
// is violated anywhere. A second table runs the channel-connected-
// component partition over each benchmark's expanded transistor deck,
// asserting the netlist-level analysis sees no structural findings.
func SCA(cfg Config) (*Output, error) {
	cfg = cfg.withDefaults()
	out := &Output{ID: "sca", Title: "static level bound vs sum-of-widths vs simulated discharge width"}
	benches := ladderBenches(cfg)

	tb := report.NewTable("Simultaneous-discharge width (W/L units)",
		"circuit", "gates", "levels", "simulated", "static level bound", "sum-of-widths", "bound tightening")
	for _, b := range benches {
		st, err := sizing.StaticLevel(b.c)
		if err != nil {
			return nil, fmt.Errorf("sca: %s: %w", b.name, err)
		}
		sim, err := sizing.SimultaneousWidth(b.c, b.scfg, b.trs)
		if err != nil {
			return nil, fmt.Errorf("sca: %s: %w", b.name, err)
		}
		if !(sim <= st.WL && st.WL <= st.SumOfWidths) {
			return nil, fmt.Errorf("sca: %s violates the bound chain: simulated %.1f, static level %.1f, sum %.1f",
				b.name, sim, st.WL, st.SumOfWidths)
		}
		tb.Addf("%s\t%d\t%d\t%.0f\t%.0f\t%.0f\t%.2fx",
			b.name, len(b.c.Gates), len(st.Levels), sim, st.WL, st.SumOfWidths, st.SumOfWidths/st.WL)
	}
	out.Tables = append(out.Tables, tb)

	t2 := report.NewTable("CCC partition of the expanded decks",
		"deck", "components", "largest (devices/nets)", "shorts", "floating", "deep")
	for _, b := range benches {
		stim := circuit.Stimulus{Old: b.trs[0].Old, New: b.trs[0].New, TEdge: 1e-9, TRise: 50e-12}
		nl, err := b.c.Netlist(stim)
		if err != nil {
			return nil, fmt.Errorf("sca: expand %s: %w", b.name, err)
		}
		flat, err := nl.Flatten()
		if err != nil {
			return nil, fmt.Errorf("sca: flatten %s: %w", b.name, err)
		}
		a := sca.Analyze(flat, sca.Config{})
		st := a.Stats()
		if len(a.Shorts) != 0 {
			return nil, fmt.Errorf("sca: expanded %s deck has an always-on short: %+v", b.name, a.Shorts[0])
		}
		t2.Addf("%s\t%d\t%d/%d\t%d\t%d\t%d",
			b.name, st.Components, st.LargestDevices, st.LargestNets,
			len(a.Shorts), len(a.Floating), len(a.Deep))
	}
	out.Tables = append(out.Tables, t2)

	out.note("the static level bound needs no vectors and no simulation (same effort class as sum-of-widths) yet sits on the simulated side of it; the measured width is what the sleep device must actually carry at the worst instant")
	out.note("per-gate arrival windows [earliest, latest level] make the bound sound: a deep gate fed by a primary input can discharge at level 1, so levels charge every gate whose window covers them")
	return out, nil
}

// ladderBench is one circuit of the bound-ladder experiments (sca and
// refine): its sizing configuration and the stressing transitions
// whose simulated discharge width the static bounds must cover. The
// first transition also stimulates the expanded deck.
type ladderBench struct {
	name string
	c    *circuit.Circuit
	scfg sizing.Config
	trs  []sizing.Transition
}

// ladderBenches builds the paper's inverter tree, adder and multiplier
// with their stressing transitions; refine appends the select tree.
func ladderBenches(cfg Config) []ladderBench {
	tree, _ := paperTree()
	treeTrs := []sizing.Transition{
		{Old: map[string]bool{"in": false}, New: map[string]bool{"in": true}, Label: "0->1"},
		{Old: map[string]bool{"in": true}, New: map[string]bool{"in": false}, Label: "1->0"},
	}

	ad := paperAdder(cfg.AdderBits)
	half := uint64(1) << uint(cfg.AdderBits)
	space := adderSpace(cfg.AdderBits)
	var adTrs []sizing.Transition
	for _, p := range [][2]uint64{{0, space.Size() - 1}, {0, half - 1}, {half / 2, space.Size() - 1}} {
		o, w := p[0], p[1]
		adTrs = append(adTrs, sizing.Transition{
			Old:   ad.Inputs(o%half, o/half, false),
			New:   ad.Inputs(w%half, w/half, false),
			Label: fmt.Sprintf("%d->%d", o, w),
		})
	}

	m := paperMultiplier(cfg.MultiplierBits)
	oa, ob, na, nb := vectorA(cfg.MultiplierBits)
	mTrs := []sizing.Transition{{Old: m.Inputs(oa, ob), New: m.Inputs(na, nb), Label: "A"}}

	return []ladderBench{
		{"inverter tree", tree, cfg.sizingCfg(nil), treeTrs},
		{fmt.Sprintf("%d-bit adder", cfg.AdderBits), ad.Circuit, cfg.sizingCfg(nil), adTrs},
		{fmt.Sprintf("%dx%d multiplier", cfg.MultiplierBits, cfg.MultiplierBits),
			m.Circuit, cfg.sizingCfg(m.ProductNets), mTrs},
	}
}
