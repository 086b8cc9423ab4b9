package experiments

import (
	"fmt"
	"strings"

	"mtcmos/internal/circuit"
	"mtcmos/internal/circuits"
	"mtcmos/internal/core"
	"mtcmos/internal/hierarchy"
	"mtcmos/internal/mosfet"
	"mtcmos/internal/report"
)

// Hier runs the hierarchical-sizing extension (the authors' DAC'98
// follow-up): partition each benchmark into blocks, detect mutually
// exclusive discharge patterns with the switch-level simulator, merge
// compatible blocks, and compare the total sleep width against
// single-device and per-block sizing. A functional multi-domain
// verification closes the loop.
func Hier(cfg Config) (*Output, error) {
	cfg = cfg.withDefaults()
	out := &Output{ID: "hier", Title: "Extension (DAC'98): hierarchical sizing via mutually exclusive discharge"}

	tb := report.NewTable("Sleep width (sum of W/L) by strategy, 50mV bounce budget",
		"circuit", "blocks", "groups", "single", "per-block", "hierarchical", "saving vs per-block")

	type job struct {
		name   string
		c      *circuit.Circuit
		blocks [][]int
		trs    []hierarchy.Transition
	}
	var jobs []job

	// Inverter chain: strictly sequential discharge, the textbook
	// mutual-exclusion case.
	chainTech := mosfet.Tech07()
	chain := circuits.InverterChain(&chainTech, 12, 20e-15)
	chainBlocks, err := hierarchy.PartitionByLevel(chain, 6)
	if err != nil {
		return nil, err
	}
	jobs = append(jobs, job{"inverter chain x12", chain, chainBlocks,
		[]hierarchy.Transition{
			{Old: map[string]bool{"in": false}, New: map[string]bool{"in": true}, Label: "0->1"},
			{Old: map[string]bool{"in": true}, New: map[string]bool{"in": false}, Label: "1->0"},
		}})

	// Ripple adder partitioned per full adder: the carry chain
	// staggers windows, partial-product-style input flips overlap.
	ad := paperAdder(cfg.AdderBits + 1)
	adBlocks := hierarchy.PartitionByPrefix(ad.Circuit, func(name string) string {
		return strings.SplitN(name, "_", 2)[0]
	})
	mask := uint64(1)<<uint(cfg.AdderBits+1) - 1
	jobs = append(jobs, job{fmt.Sprintf("%d-bit adder", cfg.AdderBits+1), ad.Circuit, adBlocks,
		[]hierarchy.Transition{
			{Old: ad.Inputs(0, 0, false), New: ad.Inputs(mask, 1, false), Label: "ripple"},
			{Old: ad.Inputs(0, 0, false), New: ad.Inputs(mask, mask, false), Label: "all-on"},
			{Old: ad.Inputs(mask/2, mask/2+1, false), New: ad.Inputs(mask, 0, false), Label: "mixed"},
		}})

	for _, j := range jobs {
		hcfg := hierarchy.Config{Blocks: j.blocks, MaxBounce: 0.05, Sim: cfg.simOpts(core.Options{})}
		plan, err := hierarchy.Analyze(j.c, hcfg, j.trs)
		if err != nil {
			return nil, err
		}
		saving := "none"
		if plan.TotalWL < plan.PerBlockWL {
			saving = fmt.Sprintf("%.1fx", plan.PerBlockWL/plan.TotalWL)
		}
		tb.Addf("%s\t%d\t%d\t%.0f\t%.0f\t%.0f\t%s",
			j.name, len(j.blocks), len(plan.Groups),
			plan.SingleWL, plan.PerBlockWL, plan.TotalWL, saving)

		// Verify the applied plan settles correctly.
		if err := hierarchy.Apply(j.c, hcfg, plan); err != nil {
			return nil, err
		}
		tr := j.trs[0]
		res, err := core.Simulate(j.c, circuit.Stimulus{
			Old: tr.Old, New: tr.New, TEdge: 1e-9, TRise: 50e-12,
		}, cfg.simOpts(core.Options{}))
		if err != nil {
			return nil, err
		}
		want, err := j.c.Evaluate(tr.New)
		if err != nil {
			return nil, err
		}
		for net, wv := range want {
			if res.Final[net] != wv {
				return nil, fmt.Errorf("hier: %s: multi-domain sim settles %q wrong", j.name, net)
			}
		}
	}
	out.Tables = append(out.Tables, tb)
	out.note("mutually exclusive blocks (sequential discharge) share one device sized for the max requirement; overlapping blocks keep separate rails — the DAC'98 insight on top of this paper's simulator")
	return out, nil
}
