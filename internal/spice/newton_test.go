package spice

import (
	"fmt"
	"math"
	"testing"

	"mtcmos/internal/circuit"
	"mtcmos/internal/circuits"
	"mtcmos/internal/mosfet"
)

// mult4 is the 4x4 carry-save multiplier of the paper's Fig. 7
// vectors, in the 0.3 um technology with 15 fF loads: the circuit on
// which Saha et al. (arXiv 1310.3203) size cluster sleep transistors.
func mult4(wl float64) *circuits.Multiplier {
	t3 := mosfet.Tech03()
	m := circuits.CarrySaveMultiplier(&t3, 4, 15e-15)
	m.SleepWL = wl
	return m
}

// TestStandbyMultiplierConverges solves the standby operating point of
// the 4x4 multiplier at W/L 95 in states whose warm-up transient once
// exhausted the recovery ladder. (0, 15) and (8, 9) also pin the step
// solver's rule that a non-finite update of a finite system is retried
// by the ladder rather than failed as poison.
func TestStandbyMultiplierConverges(t *testing.T) {
	for _, xy := range [][2]uint64{{15, 9}, {8, 12}, {11, 6}, {0, 15}, {8, 9}} {
		t.Run(fmt.Sprintf("%dx%d", xy[0], xy[1]), func(t *testing.T) {
			m := mult4(95)
			res, err := Standby(m.Circuit, m.Inputs(xy[0], xy[1]))
			if err != nil {
				t.Fatal(err)
			}
			if !(res.Reduction > 1) || !(res.VGndFloat > 0 && res.VGndFloat <= m.Tech.Vdd) {
				t.Errorf("reduction %.3g, virtual ground %.3g V", res.Reduction, res.VGndFloat)
			}
		})
	}
}

// transition is one reference transient: a circuit, its input edge
// and the outputs whose settling delays it measures.
type transition struct {
	c    *circuit.Circuit
	stim circuit.Stimulus
	outs []string
}

// edge switches the inputs from old to new at 1ns with a 50ps ramp, as
// the experiments do.
func edge(old, new map[string]bool) circuit.Stimulus {
	return circuit.Stimulus{Old: old, New: new, TEdge: 1e-9, TRise: 50e-12}
}

// adderEdge is the paper's 3-bit adder edge (0,1)→(6,5) at W/L 10,
// Fig. 13's vector.
func adderEdge() transition {
	ad := circuits.RippleCarryAdder(tech07(), 3, 20e-15)
	ad.SleepWL = 10
	var outs []string
	for _, n := range ad.Outputs() {
		outs = append(outs, n.Name)
	}
	return transition{ad.Circuit, edge(ad.Inputs(0, 1, false), ad.Inputs(6, 5, false)), outs}
}

// multVectorA is the 4x4 multiplier's vector A (0·0 → 15·9) at W/L 40.
func multVectorA() transition {
	m := mult4(40)
	return transition{m.Circuit, edge(m.Inputs(0, 0), m.Inputs(15, 9)), m.ProductNets}
}

// TestTransientMultiplierReverseVectorA runs the reverse of the paper's
// vector A (15·9 → 0·0), which used to fail at t = 0, and the all-ones
// edge (15·15 → 0·0) on the 4x4 multiplier across sleep sizes, and
// requires every product bit to settle low. Without the floor on
// error-controlled steps these falling-input ramps drove the step below
// 0.1ps on a node without capacitance, where Newton no longer converged.
func TestTransientMultiplierReverseVectorA(t *testing.T) {
	for _, wl := range []float64{0, 5, 20, 40, 95} {
		t.Run(fmt.Sprintf("wl=%g", wl), func(t *testing.T) {
			for _, xy := range [][2]uint64{{15, 9}, {15, 15}} {
				t.Run(fmt.Sprintf("%dx%d", xy[0], xy[1]), func(t *testing.T) {
					t.Parallel()
					// The experiments' 20ns horizon, except where the
					// all-ones edge at W/L 5 leaves the virtual ground,
					// and the low outputs on it, at 0.18 V after 20ns;
					// it drains to 3 mV by 60ns.
					tstop := 20e-9
					if wl == 5 && xy == [2]uint64{15, 15} {
						tstop = 60e-9
					}
					m := mult4(wl)
					rr, err := Run(m.Circuit, edge(m.Inputs(xy[0], xy[1]), m.Inputs(0, 0)), RunOptions{Options: Options{TStop: tstop}})
					if err != nil {
						t.Fatal(err)
					}
					for _, n := range m.ProductNets {
						if v := rr.OutTrace(n).Final(); v > 0.1*m.Tech.Vdd {
							t.Errorf("%s ends at %.3f V, want 0", n, v)
						}
					}
				})
			}
		})
	}
}

// TestTransientStepControl: the error-controlled step spends its steps
// on the edges. A fixed 5ps cap takes 4,006 and 4,010 steps on
// adderEdge and multVectorA. Each run must stay under a bound set from
// the controller's own counts (569 and 2,155) with margin, and each
// worst delay must be within 0.3% of the same run at DTMax 0.5ps. That
// reference stops at 5ns: with DTMax given, its steps do not depend on
// TStop, and both edges settle before 3ns.
func TestTransientStepControl(t *testing.T) {
	cases := []struct {
		name     string
		tr       transition
		maxSteps int
	}{
		{"adder 0+1->6+5 wl=10", adderEdge(), 1000},
		{"mult4 vector A wl=40", multVectorA(), 2600},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			var delay [2]float64
			for k, o := range []Options{{TStop: 20e-9}, {TStop: 5e-9, DTMax: 0.5e-12}} {
				rr, err := Run(tc.tr.c, tc.tr.stim, RunOptions{Options: o})
				if err != nil {
					t.Fatal(err)
				}
				if k == 0 && rr.Steps > tc.maxSteps {
					t.Errorf("%d accepted steps, want at most %d", rr.Steps, tc.maxSteps)
				}
				if delay[k], _, err = rr.MaxDelay(tc.tr.outs); err != nil {
					t.Fatal(err)
				}
			}
			if rel := math.Abs(delay[0]-delay[1]) / delay[1]; rel > 0.003 {
				t.Errorf("worst delay %.5g ns, %.3g%% from %.5g ns at DTMax 0.5ps", delay[0]*1e9, 100*rel, delay[1]*1e9)
			}
		})
	}
}
