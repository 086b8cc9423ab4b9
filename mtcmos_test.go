package mtcmos_test

import (
	"fmt"
	"strings"
	"testing"

	"mtcmos"
)

// TestFacadeQuickstart exercises the package-documentation quick start
// end to end through the public API only.
func TestFacadeQuickstart(t *testing.T) {
	tech := mtcmos.Tech07()
	tree := mtcmos.InverterTree(&tech, 3, 3, 50e-15)
	tree.SleepWL = 8
	res, err := mtcmos.Simulate(tree, mtcmos.Stimulus{
		Old:   map[string]bool{"in": false},
		New:   map[string]bool{"in": true},
		TEdge: 1e-9, TRise: 50e-12,
	}, mtcmos.SwitchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d, ok := res.Delay("s3_0")
	if !ok || d <= 0 {
		t.Fatalf("delay = %g, %v", d, ok)
	}
	if res.PeakVx <= 0 {
		t.Error("no bounce reported")
	}
}

func TestFacadeBuildAndSize(t *testing.T) {
	tech := mtcmos.Tech07()
	c := mtcmos.NewCircuit("demo", &tech)
	c.Input("a")
	c.Input("b")
	if _, err := c.AddGate(mtcmos.Nand2, "g1", "n1", 1, "a", "b"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddGate(mtcmos.Inv, "g2", "y", 1, "n1"); err != nil {
		t.Fatal(err)
	}
	c.MarkOutput("y")
	c.SetLoad("y", 30e-15)
	trs := []mtcmos.Transition{{
		Old:   map[string]bool{"a": false, "b": true},
		New:   map[string]bool{"a": true, "b": true},
		Label: "a rise",
	}}
	sz, err := mtcmos.SizeForDelayTarget(c, mtcmos.SizingConfig{}, trs, 0.05, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sz.WL <= 0 {
		t.Fatalf("bad sizing %+v", sz)
	}
	if mtcmos.SumOfWidths(c) <= 0 {
		t.Error("sum of widths must be positive")
	}
}

func TestFacadeSpiceEngineAgreesOnLogic(t *testing.T) {
	tech := mtcmos.Tech07()
	c := mtcmos.InverterChain(&tech, 2, 20e-15)
	c.SleepWL = 10
	stim := mtcmos.Stimulus{
		Old:   map[string]bool{"in": false},
		New:   map[string]bool{"in": true},
		TEdge: 0.5e-9, TRise: 50e-12,
	}
	res, err := mtcmos.SimulateSpice(c, stim, mtcmos.SpiceOptions{
		Options: mtcmos.EngineOptions{TStop: 5e-9},
	})
	if err != nil {
		t.Fatal(err)
	}
	if v := res.OutTrace("out").Final(); v < tech.Vdd-0.1 {
		t.Errorf("chain output must settle high, got %g", v)
	}
}

func TestFacadeNetlistRoundTrip(t *testing.T) {
	deck := "demo\nR1 a 0 1k\nC1 a 0 1p\nV1 a 0 DC 1\n"
	nl, err := mtcmos.ParseNetlist(strings.NewReader(deck))
	if err != nil {
		t.Fatal(err)
	}
	tech := mtcmos.Tech07()
	res, err := mtcmos.SimulateNetlist(nl, &tech, mtcmos.EngineOptions{TStop: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if v := res.Trace("a").Final(); v < 0.99 {
		t.Errorf("sourced node = %g", v)
	}
}

func TestFacadePowerAndVectors(t *testing.T) {
	tech := mtcmos.Tech07()
	ad := mtcmos.RippleCarryAdder(&tech, 3, 20e-15)
	ad.SleepWL = 10
	ps, err := mtcmos.AnalyzePower(ad.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	if ps.LeakageReduction < 100 {
		t.Errorf("leakage reduction = %g", ps.LeakageReduction)
	}
	if mtcmos.SwitchingPower(0.5, 1e-12, 1.2, 1e8) <= 0 {
		t.Error("switching power formula broken")
	}
	sp, err := mtcmos.NewVectorSpace(mtcmos.BitNames("a", 3)...)
	if err != nil {
		t.Fatal(err)
	}
	if sp.PairCount() != 64 {
		t.Errorf("pair count = %d", sp.PairCount())
	}
}

func TestFacadeExperimentsRegistry(t *testing.T) {
	exps := mtcmos.Experiments()
	if len(exps) != 20 {
		t.Fatalf("registry size = %d, want 20", len(exps))
	}
	out, err := mtcmos.RunExperiment("widths", mtcmos.ExperimentConfig{Fast: true, MultiplierBits: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Tables) == 0 {
		t.Error("widths produced no table")
	}
	if _, err := mtcmos.RunExperiment("nosuch", mtcmos.ExperimentConfig{}); err == nil {
		t.Error("unknown experiment must error")
	}
}

func TestFacadeHierarchyAndStandby(t *testing.T) {
	tech := mtcmos.Tech07()
	chain := mtcmos.InverterChain(&tech, 6, 20e-15)
	blocks, err := mtcmos.PartitionByLevel(chain, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := mtcmos.HierarchyConfig{Blocks: blocks, MaxBounce: 0.05}
	trs := []mtcmos.Transition{
		{Old: map[string]bool{"in": false}, New: map[string]bool{"in": true}},
	}
	plan, err := mtcmos.AnalyzeHierarchy(chain, cfg, trs)
	if err != nil {
		t.Fatal(err)
	}
	if plan.TotalWL <= 0 || len(plan.Groups) == 0 {
		t.Fatalf("bad plan %+v", plan)
	}
	if err := mtcmos.ApplyHierarchy(chain, cfg, plan); err != nil {
		t.Fatal(err)
	}

	ad := mtcmos.RippleCarryAdder(&tech, 2, 20e-15)
	ad.SleepWL = 20
	sb, err := mtcmos.Standby(ad.Circuit, ad.Inputs(1, 2, false))
	if err != nil {
		t.Fatal(err)
	}
	if sb.Reduction < 100 {
		t.Errorf("standby reduction = %g", sb.Reduction)
	}
}

func TestFacadeAccuracyOptions(t *testing.T) {
	tech := mtcmos.Tech07()
	tree := mtcmos.InverterTree(&tech, 3, 3, 50e-15)
	tree.SleepWL = 8
	stim := mtcmos.Stimulus{
		Old: map[string]bool{"in": false}, New: map[string]bool{"in": true},
		TEdge: 1e-9, TRise: 50e-12,
	}
	plain, err := mtcmos.Simulate(tree, stim, mtcmos.SwitchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	refined, err := mtcmos.Simulate(tree, stim, mtcmos.SwitchOptions{InputSlope: true, Triode: true})
	if err != nil {
		t.Fatal(err)
	}
	dp, _ := plain.Delay("s3_0")
	dr, _ := refined.Delay("s3_0")
	if dr <= dp {
		t.Errorf("refined model must be slower: %g vs %g", dr, dp)
	}
}

// TestFacadeBatchAndSweep exercises the compiled-circuit batch API: a
// batch over stimuli and a sweep over sleep sizes, both matching
// one-shot Simulate exactly at any worker count.
func TestFacadeBatchAndSweep(t *testing.T) {
	tech := mtcmos.Tech07()
	tree := mtcmos.InverterTree(&tech, 3, 3, 50e-15)
	tree.SleepWL = 8
	cp, err := mtcmos.CompileCircuit(tree)
	if err != nil {
		t.Fatal(err)
	}
	up := mtcmos.Stimulus{
		Old:   map[string]bool{"in": false},
		New:   map[string]bool{"in": true},
		TEdge: 1e-9, TRise: 50e-12,
	}
	down := mtcmos.Stimulus{
		Old:   map[string]bool{"in": true},
		New:   map[string]bool{"in": false},
		TEdge: 1e-9, TRise: 50e-12,
	}

	for _, workers := range []int{1, 4} {
		opts := mtcmos.BatchOptions{Workers: workers}
		batch, err := mtcmos.SimulateBatch(cp, []mtcmos.Stimulus{up, down}, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i, stim := range []mtcmos.Stimulus{up, down} {
			ref, err := mtcmos.Simulate(tree, stim, mtcmos.SwitchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			got, _ := batch[i].Delay("s3_0")
			want, _ := ref.Delay("s3_0")
			if got != want {
				t.Errorf("workers=%d stim %d: batch delay %g != %g", workers, i, got, want)
			}
		}

		wls := []float64{0, 2, 8, 20}
		sweep, err := mtcmos.SimulateSweep(cp, wls, up, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i, wl := range wls {
			tree.SleepWL = wl
			ref, err := mtcmos.Simulate(tree, up, mtcmos.SwitchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			tree.SleepWL = 8
			got, _ := sweep[i].Delay("s3_0")
			want, _ := ref.Delay("s3_0")
			if got != want {
				t.Errorf("workers=%d wl=%g: sweep delay %g != %g", workers, wl, got, want)
			}
		}
	}
}

// TestFacadeProvePaths drives the path-condition prover through the
// public API: a conditional sneak deck yields one non-Always short
// with a witness, and a statically-floating-but-covered node is
// refuted.
func TestFacadeProvePaths(t *testing.T) {
	deck := `sneak
Vdd vdd 0 DC 1.2
Vs s 0 PWL(0 0 1n 0 1.05n 1.2)
Vt t 0 PWL(0 0 1n 0 1.05n 1.2)
Mpu x s vdd vdd pmos W=2.8u L=0.7u
Mpd x t 0 0 nmos W=1.4u L=0.7u
Cl x 0 10f
.end
`
	nl, err := mtcmos.ParseNetlist(strings.NewReader(deck))
	if err != nil {
		t.Fatal(err)
	}
	_, pf, err := mtcmos.ProvePaths(nl, mtcmos.GraphConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pf.Shorts) != 1 || pf.Shorts[0].Always {
		t.Fatalf("want one conditional short, got %+v", pf.Shorts)
	}
	if got := pf.Shorts[0].Witness.String(); got != "s=0 t=1" {
		t.Errorf("witness = %q, want \"s=0 t=1\"", got)
	}
	tech := mtcmos.Tech07()
	diags := mtcmos.LintWith(nl, nil, &tech, mtcmos.LintOptions{Prove: true})
	found := false
	for _, d := range diags {
		if d.Code == "MT023" && d.Witness == "s=0 t=1" {
			found = true
		}
	}
	if !found {
		t.Errorf("LintWith(Prove) missing the MT023 witness: %v", diags)
	}
}

// TestFacadeRefinedBound exercises the mutual-exclusion refinement
// through the public API, asserting the full bound ladder
// simulated ≤ refined ≤ static ≤ sum on the select tree.
func TestFacadeRefinedBound(t *testing.T) {
	tech := mtcmos.Tech07()
	c := mtcmos.SelectTree(&tech, 6, 20e-15)

	refined, err := mtcmos.RefinedLevelBound(c)
	if err != nil {
		t.Fatal(err)
	}
	static, err := mtcmos.StaticLevelBound(c)
	if err != nil {
		t.Fatal(err)
	}
	sum := mtcmos.SumOfWidths(c)
	vec := func(sel bool, on bool) map[string]bool {
		in := map[string]bool{"sel": sel}
		for i := 0; i < 6; i++ {
			in[fmt.Sprintf("a%d", i)] = on
			in[fmt.Sprintf("b%d", i)] = on
		}
		return in
	}
	// The refined bound covers settled discharge events (DESIGN.md
	// §11): data falls within a stable branch, and a branch flip with
	// rising data. A mixed edge (select flip + data fall together) can
	// glitch past the refined bound — that hazard case is what the
	// unrefined static bound still covers.
	sim, err := mtcmos.SimultaneousWidth(c, mtcmos.SizingConfig{}, []mtcmos.Transition{
		{Old: vec(false, true), New: vec(false, false), Label: "A falls"},
		{Old: vec(true, true), New: vec(true, false), Label: "B falls"},
		{Old: vec(false, false), New: vec(true, true), Label: "branch flip, data rises"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !(sim <= refined && refined <= static && static <= sum) {
		t.Fatalf("bound ladder violated: sim %.1f, refined %.1f, static %.1f, sum %.1f", sim, refined, static, sum)
	}
	if refined >= static {
		t.Errorf("refinement did not tighten: refined %.1f, static %.1f", refined, static)
	}

	r, err := mtcmos.RefineLevels(c, mtcmos.ExclusionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.Proven == 0 || len(r.Pairs) == 0 {
		t.Errorf("no exclusions proven: %+v", r.Stats)
	}

	st, err := mtcmos.SizeForStaticLevel(c, mtcmos.WithRefinement(mtcmos.ExclusionConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	if st.Refined != refined || st.Exclusions == nil {
		t.Errorf("SizeForStaticLevel refinement mismatch: %.1f vs %.1f", st.Refined, refined)
	}
}

// TestRunExperimentRejectsBadWidths: a width below the generator's
// minimum, or a negative reference-engine vector budget, is an error
// naming the field, not a panic, in every registered experiment; 0
// keeps meaning the default.
func TestRunExperimentRejectsBadWidths(t *testing.T) {
	for _, e := range mtcmos.Experiments() {
		for _, c := range []struct {
			cfg   mtcmos.ExperimentConfig
			field string
		}{
			{mtcmos.ExperimentConfig{Fast: true, MultiplierBits: 1}, "MultiplierBits"},
			{mtcmos.ExperimentConfig{Fast: true, AdderBits: -1}, "AdderBits"},
			{mtcmos.ExperimentConfig{Fast: true, SpiceVectors: -1}, "SpiceVectors"},
		} {
			out, err := mtcmos.RunExperiment(e.ID, c.cfg)
			if err == nil || out != nil || !strings.Contains(err.Error(), c.field) || !strings.Contains(err.Error(), "at least") {
				t.Errorf("%s with %+v: (%v, %v), want an error naming %s and its minimum", e.ID, c.cfg, out, err, c.field)
			}
		}
	}
}
