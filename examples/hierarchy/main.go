// Hierarchy demonstrates the toolkit's extensions beyond the DAC'97
// paper: hierarchical sleep-transistor sizing via mutually exclusive
// discharge patterns (the authors' DAC'98 follow-up) and the standby
// leakage analysis that quantifies what the sleep device buys.
package main

import (
	"fmt"
	"log"
	"strings"

	"mtcmos"
)

func main() {
	tech := mtcmos.Tech07()

	// --- Part 1: hierarchical sizing on a pipeline-like chain ---
	// A 12-stage inverter chain discharges strictly one gate at a time,
	// so blocks partitioned by depth never discharge together: they can
	// share one sleep device sized for the worst single block instead
	// of one per block.
	chain := mtcmos.InverterChain(&tech, 12, 20e-15)
	blocks, err := mtcmos.PartitionByLevel(chain, 6)
	if err != nil {
		log.Fatal(err)
	}
	trs := []mtcmos.Transition{
		{Old: map[string]bool{"in": false}, New: map[string]bool{"in": true}, Label: "0->1"},
		{Old: map[string]bool{"in": true}, New: map[string]bool{"in": false}, Label: "1->0"},
	}
	cfg := mtcmos.HierarchyConfig{Blocks: blocks, MaxBounce: 0.05}
	plan, err := mtcmos.AnalyzeHierarchy(chain, cfg, trs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("inverter chain x12, %d blocks by depth:\n", len(blocks))
	fmt.Printf("  per-block devices: total W/L = %.0f\n", plan.PerBlockWL)
	fmt.Printf("  mutual-exclusion groups: %d -> total W/L = %.0f (%.1fx saving)\n",
		len(plan.Groups), plan.TotalWL, plan.PerBlockWL/plan.TotalWL)

	// Apply the plan (configures multi-domain sleep rails) and verify
	// the circuit still computes.
	if err := mtcmos.ApplyHierarchy(chain, cfg, plan); err != nil {
		log.Fatal(err)
	}
	res, err := mtcmos.Simulate(chain, mtcmos.Stimulus{
		Old:   map[string]bool{"in": false},
		New:   map[string]bool{"in": true},
		TEdge: 1e-9, TRise: 50e-12,
	}, mtcmos.SwitchOptions{})
	if err != nil {
		log.Fatal(err)
	}
	d, _ := res.Delay("out")
	fmt.Printf("  multi-domain verification: out settles correctly, delay %.3f ns\n\n", d*1e9)

	// --- Part 2: per-FA partition of an adder ---
	// The adder's full adders all see their operand bits flip at the
	// same instant, so the blocks overlap and honest analysis refuses
	// to merge them — no false savings.
	ad := mtcmos.RippleCarryAdder(&tech, 4, 20e-15)
	adBlocks := mtcmos.PartitionByPrefix(ad.Circuit, func(name string) string {
		return strings.SplitN(name, "_", 2)[0]
	})
	mask := uint64(15)
	adTrs := []mtcmos.Transition{
		{Old: ad.Inputs(0, 0, false), New: ad.Inputs(mask, 1, false), Label: "ripple"},
		{Old: ad.Inputs(0, 0, false), New: ad.Inputs(mask, mask, false), Label: "all-on"},
	}
	adCfg := mtcmos.HierarchyConfig{Blocks: adBlocks, MaxBounce: 0.05}
	adPlan, err := mtcmos.AnalyzeHierarchy(ad.Circuit, adCfg, adTrs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("4-bit adder, per-FA blocks: %d blocks -> %d groups (overlapping discharge: honest analysis declines to merge)\n\n",
		len(adBlocks), len(adPlan.Groups))

	// --- Part 3: what the sleep device buys — standby DC analysis ---
	ad3 := mtcmos.RippleCarryAdder(&tech, 2, 20e-15)
	ad3.SleepWL = 20
	sb, err := mtcmos.Standby(ad3.Circuit, ad3.Inputs(3, 0, false))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("standby DC analysis (2-bit adder, sleep W/L=20):\n")
	fmt.Printf("  virtual ground floats to %.3f V (self-reverse-bias)\n", sb.VGndFloat)
	fmt.Printf("  leakage: %.3g nA active -> %.3g fA standby (%.0fx reduction)\n",
		sb.Active*1e9, sb.Standby*1e15, sb.Reduction)
}
