package hierarchy

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"mtcmos/internal/circuit"
	"mtcmos/internal/circuits"
	"mtcmos/internal/core"
	"mtcmos/internal/mosfet"
)

func tech07() *mosfet.Tech { t := mosfet.Tech07(); return &t }

func chainTransitions() []circuit.Transition { return circuits.InverterEdges() }

func TestPartitionByLevel(t *testing.T) {
	c := circuits.InverterChain(tech07(), 8, 20e-15)
	blocks, err := PartitionByLevel(c, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 4 {
		t.Fatalf("blocks = %d", len(blocks))
	}
	total := 0
	for _, b := range blocks {
		total += len(b)
	}
	if total != 8 {
		t.Errorf("gates covered = %d", total)
	}
	if _, err := PartitionByLevel(c, 0); err == nil {
		t.Error("zero levels must fail")
	}
}

func TestPartitionByPrefix(t *testing.T) {
	ad := circuits.RippleCarryAdder(tech07(), 3, 20e-15)
	blocks := PartitionByPrefix(ad.Circuit, func(name string) string {
		return strings.SplitN(name, "_", 2)[0] // fa0, fa1, fa2
	})
	if len(blocks) != 3 {
		t.Fatalf("blocks = %d", len(blocks))
	}
	for _, b := range blocks {
		if len(b) != 4 { // mcarry, msum, 2 inverters per FA
			t.Errorf("block size = %d, want 4", len(b))
		}
	}
}

func TestChainStagesAreMutuallyExclusive(t *testing.T) {
	// In an inverter chain only one gate discharges at a time, so
	// every block pair is overlap-free and all merge into one group
	// sized for the max, not the sum.
	c := circuits.InverterChain(tech07(), 8, 20e-15)
	blocks, err := PartitionByLevel(c, 4)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Analyze(c, Config{Blocks: blocks, MaxBounce: 0.05}, chainTransitions())
	if err != nil {
		t.Fatal(err)
	}
	for i := range plan.Overlap {
		for j := range plan.Overlap[i] {
			if i != j && plan.Overlap[i][j] {
				t.Errorf("chain blocks %d and %d overlap", i, j)
			}
		}
	}
	if len(plan.Groups) != 1 {
		t.Fatalf("groups = %d, want 1 (all mutually exclusive)", len(plan.Groups))
	}
	if plan.TotalWL >= plan.PerBlockWL {
		t.Errorf("merging must beat per-block: total=%g perblock=%g", plan.TotalWL, plan.PerBlockWL)
	}
	// Single shared device sees the same peak (one gate at a time), so
	// hierarchical here matches single.
	if plan.TotalWL > plan.SingleWL*1.01 {
		t.Errorf("chain total %g should not exceed single %g", plan.TotalWL, plan.SingleWL)
	}
}

func TestTreeStagesOverlap(t *testing.T) {
	// The 1-3-9 tree discharges stage 1 and stage 3 on the same edge;
	// stage 2 rises. Partitioned by level, the discharging levels do
	// not overlap each other in time (stage 3 fires after stage 1
	// finishes only if delays separate them — with equal loads stage 1
	// is still falling when stage 3 starts, so expect overlap).
	c := circuits.InverterTree(tech07(), 3, 3, 50e-15)
	blocks, err := PartitionByLevel(c, 3)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Analyze(c, Config{Blocks: blocks, MaxBounce: 0.05}, chainTransitions())
	if err != nil {
		t.Fatal(err)
	}
	// Block peaks: the 9-inverter stage dominates.
	max := 0.0
	for _, p := range plan.BlockPeakI {
		if p > max {
			max = p
		}
	}
	if max <= 0 {
		t.Fatal("no discharge current recorded")
	}
	if plan.SingleWL <= 0 || plan.TotalWL <= 0 {
		t.Fatalf("bad plan: %+v", plan)
	}
}

func TestAdderHierarchicalSavings(t *testing.T) {
	// Per-FA blocks of a ripple adder have staggered discharge
	// windows; hierarchical grouping must not exceed the per-block
	// total, and the plan must verify functionally when applied.
	ad := circuits.RippleCarryAdder(tech07(), 4, 20e-15)
	blocks := PartitionByPrefix(ad.Circuit, func(name string) string {
		return strings.SplitN(name, "_", 2)[0]
	})
	trs := []circuit.Transition{
		{Old: ad.Inputs(0, 0, false), New: ad.Inputs(15, 1, false), Label: "ripple"},
		{Old: ad.Inputs(5, 10, false), New: ad.Inputs(10, 5, false), Label: "swap"},
		{Old: ad.Inputs(0, 0, false), New: ad.Inputs(15, 15, false), Label: "all-on"},
	}
	cfg := Config{Blocks: blocks, MaxBounce: 0.05}
	plan, err := Analyze(ad.Circuit, cfg, trs)
	if err != nil {
		t.Fatal(err)
	}
	if plan.TotalWL > plan.PerBlockWL*1.000001 {
		t.Errorf("grouping made things worse: %g > %g", plan.TotalWL, plan.PerBlockWL)
	}
	t.Logf("adder: single=%.0f per-block=%.0f hierarchical=%.0f (%d groups)",
		plan.SingleWL, plan.PerBlockWL, plan.TotalWL, len(plan.Groups))

	// Apply and verify: multi-domain simulation still settles to the
	// correct logic and every gated domain reports a rail.
	if err := Apply(ad.Circuit, cfg, plan); err != nil {
		t.Fatal(err)
	}
	if got := len(ad.Circuit.Domains()); got != len(plan.Groups) {
		t.Fatalf("domains = %d, want %d", got, len(plan.Groups))
	}
	stim := circuit.Stimulus{
		Old: ad.Inputs(0, 0, false), New: ad.Inputs(15, 1, false),
		TEdge: 1e-9, TRise: 50e-12,
	}
	res, err := core.Simulate(ad.Circuit, stim, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := ad.Evaluate(stim.New)
	sum, cout := ad.Result(res.Final)
	wsum, wcout := ad.Result(want)
	if sum != wsum || cout != wcout {
		t.Fatalf("multi-domain sim wrong: %d/%v want %d/%v", sum, cout, wsum, wcout)
	}
	gated := 0
	for _, dr := range res.Domains {
		if dr.VGnd != nil {
			gated++
			if dr.PeakVx < 0 {
				t.Error("negative bounce")
			}
		}
	}
	if gated != len(plan.Groups) {
		t.Errorf("gated rails = %d, want %d", gated, len(plan.Groups))
	}
}

func TestAnalyzeValidation(t *testing.T) {
	c := circuits.InverterChain(tech07(), 2, 0)
	if _, err := Analyze(c, Config{}, chainTransitions()); err == nil {
		t.Error("no blocks must fail")
	}
	if _, err := Analyze(c, Config{Blocks: [][]int{{0, 1}}}, nil); err == nil {
		t.Error("no transitions must fail")
	}
	if _, err := Analyze(c, Config{Blocks: [][]int{{0, 0}, {1}}}, chainTransitions()); err == nil {
		t.Error("duplicated gate must fail")
	}
	if _, err := Analyze(c, Config{Blocks: [][]int{{0}}}, chainTransitions()); err == nil {
		t.Error("uncovered gate must fail")
	}
	if _, err := Analyze(c, Config{Blocks: [][]int{{0, 99}}}, chainTransitions()); err == nil {
		t.Error("unknown gate must fail")
	}
}

func TestApplyRoundTrip(t *testing.T) {
	c := circuits.InverterChain(tech07(), 4, 20e-15)
	blocks, _ := PartitionByLevel(c, 2)
	cfg := Config{Blocks: blocks, MaxBounce: 0.05}
	plan, err := Analyze(c, cfg, chainTransitions())
	if err != nil {
		t.Fatal(err)
	}
	if err := Apply(c, cfg, plan); err != nil {
		t.Fatal(err)
	}
	// Every gate's domain must be a valid index.
	nd := len(c.Domains())
	for _, g := range c.Gates {
		if g.Domain < 0 || g.Domain >= nd {
			t.Errorf("gate %s domain %d out of range", g.Name, g.Domain)
		}
	}
	if err := Apply(c, cfg, &Plan{}); err == nil {
		t.Error("empty plan must fail")
	}
}

func TestIntervalOverlaps(t *testing.T) {
	a := core.Interval{Start: 0, End: 2}
	cases := []struct {
		b    core.Interval
		want bool
	}{
		{core.Interval{Start: 1, End: 3}, true},
		{core.Interval{Start: 2, End: 3}, false}, // half-open
		{core.Interval{Start: -1, End: 0}, false},
		{core.Interval{Start: 0.5, End: 1}, true},
	}
	for _, c := range cases {
		if got := a.Overlaps(c.b); got != c.want {
			t.Errorf("Overlaps(%v) = %v", c.b, got)
		}
	}
}

// TestAnalyzeConcurrent: Analyze measures in plain-CMOS mode through a
// run parameter instead of writing the circuit's SleepWL, so analyses
// of one circuit can run at once (the race detector checks it in
// scripts/check.sh's parallel-sweep gate).
func TestAnalyzeConcurrent(t *testing.T) {
	c := circuits.InverterChain(tech07(), 8, 20e-15)
	c.SleepWL = 6
	blocks, err := PartitionByLevel(c, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Blocks: blocks, MaxBounce: 0.05}
	want, err := Analyze(c, cfg, chainTransitions())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got, err := Analyze(c, cfg, chainTransitions()); err != nil || !reflect.DeepEqual(got, want) {
				t.Errorf("concurrent Analyze = %+v, %v; want %+v", got, err, want)
			}
		}()
	}
	wg.Wait()
	if c.SleepWL != 6 {
		t.Errorf("SleepWL = %g, want 6", c.SleepWL)
	}
}
