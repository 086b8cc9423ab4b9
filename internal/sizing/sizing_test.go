package sizing

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"mtcmos/internal/circuits"
	"mtcmos/internal/core"
	"mtcmos/internal/mosfet"
	"mtcmos/internal/simerr"
)

func tech07() *mosfet.Tech { t := mosfet.Tech07(); return &t }

func treeTransitions() []Transition {
	return []Transition{
		{
			Old:   map[string]bool{"in": false},
			New:   map[string]bool{"in": true},
			Label: "0->1",
		},
		{
			Old:   map[string]bool{"in": true},
			New:   map[string]bool{"in": false},
			Label: "1->0",
		},
	}
}

func TestSumOfWidths(t *testing.T) {
	c := circuits.InverterTree(tech07(), 3, 3, 50e-15)
	// 13 inverters x NMOS W/L 2.
	if got := SumOfWidths(c); got != 26 {
		t.Errorf("sum of widths = %g, want 26", got)
	}
}

func TestDegradationMonotone(t *testing.T) {
	c := circuits.InverterTree(tech07(), 3, 3, 50e-15)
	trs := treeTransitions()
	d20, err := Degradation(c, Config{}, trs, 20)
	if err != nil {
		t.Fatal(err)
	}
	d5, err := Degradation(c, Config{}, trs, 5)
	if err != nil {
		t.Fatal(err)
	}
	if d20 <= 0 || d5 <= d20 {
		t.Errorf("degradation must grow as W/L shrinks: d20=%g d5=%g", d20, d5)
	}
	if c.SleepWL != 0 {
		t.Error("Degradation must restore the circuit's SleepWL")
	}
}

func TestDelayTarget(t *testing.T) {
	c := circuits.InverterTree(tech07(), 3, 3, 50e-15)
	trs := treeTransitions()
	res, err := DelayTarget(c, Config{}, trs, 0.10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.WL <= 1 {
		t.Fatalf("implausible W/L %g", res.WL)
	}
	if res.Degradation > 0.10 {
		t.Errorf("returned size misses target: %.2f%%", res.Degradation*100)
	}
	// One notch smaller must violate the target.
	viol, err := Degradation(c, Config{}, trs, res.WL*0.9)
	if err != nil {
		t.Fatal(err)
	}
	if viol <= 0.10 {
		t.Errorf("W/L=%g*0.9 still meets target (%.2f%%): not minimal", res.WL, viol*100)
	}
	t.Logf("tree: W/L=%.1f for <=10%% (measured %.2f%%), base=%.3gns, %d sims",
		res.WL, res.Degradation*100, res.BaseDelay*1e9, res.Evals)
}

func TestDelayTargetTighterBudgetNeedsBiggerDevice(t *testing.T) {
	c := circuits.InverterTree(tech07(), 3, 3, 50e-15)
	trs := treeTransitions()
	loose, err := DelayTarget(c, Config{}, trs, 0.20, 0)
	if err != nil {
		t.Fatal(err)
	}
	tight, err := DelayTarget(c, Config{}, trs, 0.05, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tight.WL <= loose.WL {
		t.Errorf("5%% budget W/L=%g must exceed 20%% budget W/L=%g", tight.WL, loose.WL)
	}
}

func TestDelayTargetValidation(t *testing.T) {
	c := circuits.InverterTree(tech07(), 3, 3, 50e-15)
	if _, err := DelayTarget(c, Config{}, treeTransitions(), 0, 0); err == nil {
		t.Error("zero target must fail")
	}
	// Impossible target with tiny hi bound.
	if _, err := DelayTarget(c, Config{}, treeTransitions(), 0.001, 1.5); err == nil {
		t.Error("unreachable target must fail with a helpful error")
	}
}

// TestBudgetsMustBeFiniteAndPositive: both sizing entry points refuse
// a budget that is not a finite positive number. NaN passes a plain
// <= 0 guard and would size to the bisection ceiling (DelayTarget) or
// a NaN W/L (PeakCurrent); an infinite delay budget would size to 1.
func TestBudgetsMustBeFiniteAndPositive(t *testing.T) {
	c := circuits.InverterTree(tech07(), 3, 3, 50e-15)
	for _, budget := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		t.Run(fmt.Sprint(budget), func(t *testing.T) {
			if res, err := DelayTarget(c, Config{}, treeTransitions(), budget, 0); err == nil {
				t.Errorf("DelayTarget(target %g) = W/L %g, want an error", budget, res.WL)
			}
			if res, err := PeakCurrent(c, Config{}, treeTransitions(), budget); err == nil {
				t.Errorf("PeakCurrent(maxBounce %g) = W/L %g, want an error", budget, res.WL)
			}
		})
	}
}

func TestPeakCurrentConservative(t *testing.T) {
	// Paper section 4: the peak-current method oversizes vs the
	// delay-target method by a large factor (about 3x there).
	c := circuits.InverterTree(tech07(), 3, 3, 50e-15)
	trs := treeTransitions()
	pk, err := PeakCurrent(c, Config{}, trs, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if pk.Ipeak <= 0 || pk.WL <= 0 {
		t.Fatalf("bad peak result %+v", pk)
	}
	// Delay-target at 5%: the peak-current size should exceed it.
	dt, err := DelayTarget(c, Config{}, trs, 0.05, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pk.WL < dt.WL {
		t.Errorf("peak-current W/L=%g not conservative vs delay-target W/L=%g", pk.WL, dt.WL)
	}
	t.Logf("peak current %.3gmA -> W/L=%.0f; delay-target W/L=%.0f (%.1fx oversize)",
		pk.Ipeak*1e3, pk.WL, dt.WL, pk.WL/dt.WL)
	if _, err := PeakCurrent(c, Config{}, trs, 0); err == nil {
		t.Error("zero bounce budget must fail")
	}
}

func TestDelaysErrorsWhenNothingToggles(t *testing.T) {
	c := circuits.InverterTree(tech07(), 3, 3, 50e-15)
	quiet := []Transition{{
		Old: map[string]bool{"in": false},
		New: map[string]bool{"in": false},
	}}
	if _, err := Delays(c, Config{}, quiet); err == nil {
		t.Error("quiescent transitions must error")
	}
}

func TestDelayTargetDegradesToStaticLevel(t *testing.T) {
	c := circuits.InverterTree(tech07(), 3, 3, 50e-15)
	c.SleepWL = 8
	trs := treeTransitions()

	// An event budget far too small for any transition kills every
	// simulation mid-run; the search must complete with the
	// static-level estimate instead of aborting.
	cfg := Config{Sim: core.Options{MaxEvents: 2}}
	res, err := DelayTarget(c, cfg, trs, 0.05, 0)
	if err != nil {
		t.Fatalf("budget-killed search must degrade, not abort: %v", err)
	}
	if !res.Degraded || res.Estimate != "static-level" {
		t.Fatalf("want degraded static-level result, got %+v", res)
	}
	if len(res.Warnings) == 0 {
		t.Error("degraded result must carry a warning")
	}
	want, serr := StaticLevel(c)
	if serr != nil {
		t.Fatal(serr)
	}
	if res.WL != want.WL {
		t.Errorf("degraded WL = %g, want static-level bound %g", res.WL, want.WL)
	}
	if c.SleepWL != 8 {
		t.Errorf("SleepWL must be restored, got %g", c.SleepWL)
	}

	// Cancellation must abort, not degrade: a user stop is not a
	// sizing answer.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := DelayTarget(c, Config{Sim: core.Options{Ctx: ctx}}, trs, 0.05, 0); !errors.Is(err, simerr.ErrCancelled) {
		t.Fatalf("cancelled search must return ErrCancelled, got %v", err)
	}
}

func TestDelaysTolerantSkipsFailingTransition(t *testing.T) {
	c := circuits.InverterTree(tech07(), 3, 3, 50e-15)
	c.SleepWL = 8
	cfg := Config{}
	cf := cfg.withDefaults(c)
	cp, cerr := core.Compile(c)
	if cerr != nil {
		t.Fatal(cerr)
	}

	// Healthy baseline: both transitions usable, no warnings.
	worst, warns, err := delaysTolerant(cp, c.SleepWL, cf, treeTransitions())
	if err != nil || len(warns) != 0 || worst <= 0 {
		t.Fatalf("clean run: worst=%g warns=%v err=%v", worst, warns, err)
	}
}

// TestWorkerCountIndependence proves every parallel entry point returns
// bit-identical results regardless of worker count — the contract that
// lets -j N be a pure speed knob.
func TestWorkerCountIndependence(t *testing.T) {
	c := circuits.InverterTree(tech07(), 3, 3, 50e-15)
	c.SleepWL = 8
	trs := treeTransitions()

	run := func(workers int) (float64, float64, float64, *DelayTargetResult) {
		cfg := Config{Workers: workers}
		d, err := Delays(c, cfg, trs)
		if err != nil {
			t.Fatal(err)
		}
		deg, err := Degradation(c, cfg, trs, 5)
		if err != nil {
			t.Fatal(err)
		}
		pkr, err := PeakCurrent(c, cfg, trs, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		pk := pkr.WL
		dt, err := DelayTarget(c, cfg, trs, 0.05, 0)
		if err != nil {
			t.Fatal(err)
		}
		return d, deg, pk, dt
	}

	d1, deg1, pk1, dt1 := run(1)
	d8, deg8, pk8, dt8 := run(8)
	if d1 != d8 || deg1 != deg8 || pk1 != pk8 {
		t.Errorf("workers=1 vs 8: delays %g/%g deg %g/%g peak %g/%g",
			d1, d8, deg1, deg8, pk1, pk8)
	}
	if dt1.WL != dt8.WL || dt1.Degradation != dt8.Degradation || dt1.Evals != dt8.Evals {
		t.Errorf("DelayTarget diverged: %+v vs %+v", dt1, dt8)
	}

	// The tolerant path must also produce identical warnings: force
	// per-transition failures with a tiny event budget.
	for _, w := range []int{1, 8} {
		cfg := Config{Workers: w, Sim: core.Options{MaxEvents: 2}}
		res, err := DelayTarget(c, cfg, trs, 0.05, 0)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if !res.Degraded || res.Estimate != "static-level" {
			t.Fatalf("workers=%d: want static-level fallback, got %+v", w, res)
		}
	}
}
