package spice

import (
	"fmt"
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

// TestTransientMultiplierReverseVectorA runs the reverse of the paper's
// vector A (15·9 → 0·0) on the 4x4 multiplier, which used to fail at
// t = 0, and requires every product bit to settle low.
func TestTransientMultiplierReverseVectorA(t *testing.T) {
	for _, wl := range []float64{0, 40} {
		t.Run(fmt.Sprintf("wl=%g", wl), func(t *testing.T) {
			m := mult4(wl)
			stim := circuit.Stimulus{Old: m.Inputs(15, 9), New: m.Inputs(0, 0), TEdge: 1e-9, TRise: 50e-12}
			rr, err := Run(m.Circuit, stim, RunOptions{Options: Options{TStop: 20e-9}})
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
}
