package experiments

import (
	"fmt"
	"strings"

	"mtcmos/internal/circuit"
	"mtcmos/internal/circuits"
	"mtcmos/internal/core"
	"mtcmos/internal/hierarchy"
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
		trs    []circuit.Transition
	}
	var jobs []job

	// Inverter chain: strictly sequential discharge, the textbook
	// mutual-exclusion case.
	chain := circuits.PaperChain(12)
	chainBlocks, err := hierarchy.PartitionByLevel(chain, 6)
	if err != nil {
		return nil, err
	}
	jobs = append(jobs, job{"inverter chain x12", chain, chainBlocks, circuits.InverterEdges()})

	// Ripple adder partitioned per full adder: the carry chain
	// staggers windows, partial-product-style input flips overlap.
	ad := circuits.PaperAdder(cfg.AdderBits + 1)
	adBlocks := hierarchy.PartitionByPrefix(ad.Circuit, func(name string) string {
		return strings.SplitN(name, "_", 2)[0]
	})
	mask := uint64(1)<<uint(ad.Bits) - 1
	mixed := ad.Pair(mask/2, mask/2+1, mask, 0)
	mixed.Label = "mixed"
	jobs = append(jobs, job{fmt.Sprintf("%d-bit adder", ad.Bits), ad.Circuit, adBlocks,
		[]circuit.Transition{ad.CarryRipple(), ad.AllOn(), mixed}})

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
		res, err := core.Simulate(j.c, tr.Stimulus(), cfg.simOpts(core.Options{}))
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
