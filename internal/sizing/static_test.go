package sizing

import (
	"reflect"
	"sync"
	"testing"

	"mtcmos/internal/circuits"
)

func TestStaticLevelTree(t *testing.T) {
	c := circuits.InverterTree(tech07(), 3, 3, 50e-15)
	res, err := StaticLevel(c)
	if err != nil {
		t.Fatal(err)
	}
	// Levels hold 1, 3, 9 unit inverters (pulldown W/L 2 each).
	if !reflect.DeepEqual(res.Levels, []float64{2, 6, 18}) {
		t.Errorf("levels = %v, want [2 6 18]", res.Levels)
	}
	if res.WL != 18 || res.Level != 3 {
		t.Errorf("bound = %g at level %d, want 18 at 3", res.WL, res.Level)
	}
	if res.SumOfWidths != 26 {
		t.Errorf("sum of widths = %g, want 26", res.SumOfWidths)
	}
	if res.WL > res.SumOfWidths {
		t.Error("static level bound must not exceed sum-of-widths")
	}
}

// TestStaticLevelOrdering checks the estimator chain on the tree:
// measured simultaneous-discharge width ≤ static level bound ≤
// sum-of-widths.
func TestStaticLevelOrdering(t *testing.T) {
	c := circuits.InverterTree(tech07(), 3, 3, 50e-15)
	st, err := StaticLevel(c)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := SimultaneousWidth(c, Config{}, treeTransitions())
	if err != nil {
		t.Fatal(err)
	}
	if !(sim <= st.WL && st.WL <= st.SumOfWidths) {
		t.Errorf("ordering violated: simulated %g, static level %g, sum %g",
			sim, st.WL, st.SumOfWidths)
	}
	// All nine leaves discharge at once on the falling edge, so the
	// tree meets its bound exactly.
	if sim != 18 {
		t.Errorf("simultaneous width = %g, want 18", sim)
	}
}

func TestSimultaneousWidthRestoresSleepWL(t *testing.T) {
	c := circuits.InverterTree(tech07(), 2, 2, 10e-15)
	c.SleepWL = 7
	if _, err := SimultaneousWidth(c, Config{}, treeTransitions()); err != nil {
		t.Fatal(err)
	}
	if c.SleepWL != 7 {
		t.Errorf("SleepWL = %g after measurement, want 7", c.SleepWL)
	}
}

// TestSimultaneousWidthConcurrent: SimultaneousWidth measures in
// plain-CMOS mode through a run parameter, never by writing the
// circuit's SleepWL, so it shares a circuit with a concurrent
// Degradation (whose Compile reads SleepWL). The race detector checks
// this in scripts/check.sh's parallel-sweep gate.
func TestSimultaneousWidthConcurrent(t *testing.T) {
	c := circuits.InverterTree(tech07(), 3, 3, 50e-15)
	c.SleepWL = 8
	trs := treeTransitions()
	wantW, err := SimultaneousWidth(c, Config{}, trs)
	if err != nil {
		t.Fatal(err)
	}
	wantD, err := Degradation(c, Config{}, trs, 8)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			if w, err := SimultaneousWidth(c, Config{Workers: 1}, trs); err != nil || w != wantW {
				t.Errorf("concurrent SimultaneousWidth = %g, %v; want %g", w, err, wantW)
			}
		}()
		go func() {
			defer wg.Done()
			if d, err := Degradation(c, Config{Workers: 1}, trs, 8); err != nil || d != wantD {
				t.Errorf("concurrent Degradation = %g, %v; want %g", d, err, wantD)
			}
		}()
	}
	wg.Wait()
	if c.SleepWL != 8 {
		t.Errorf("SleepWL = %g, want 8", c.SleepWL)
	}
}

func TestStaticLevelRejectsEmpty(t *testing.T) {
	c := circuits.InverterTree(tech07(), 1, 1, 10e-15)
	c.Gates[0].Size = 0
	if _, err := StaticLevel(c); err == nil {
		t.Error("zero-width circuit must error")
	}
}
