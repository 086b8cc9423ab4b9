package spice

import (
	"math"
	"testing"

	"mtcmos/internal/circuit"
	"mtcmos/internal/circuits"
	"mtcmos/internal/mosfet"
	"mtcmos/internal/netlist"
)

func tech07() *mosfet.Tech { t := mosfet.Tech07(); return &t }

func flatten(t *testing.T, deck string) *netlist.Flat {
	t.Helper()
	nl, err := netlist.ParseString(deck)
	if err != nil {
		t.Fatal(err)
	}
	f, err := nl.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestRCDischarge(t *testing.T) {
	// 1k * 1p = 1ns time constant; node seeded to 1V decays
	// exponentially. Error-controlled backward Euler tracks within a
	// few %.
	f := flatten(t, "rc\nR1 a 0 1k\nC1 a 0 1p\n")
	res, err := Simulate(f, tech07(), Options{
		TStop:    3e-9,
		InitialV: map[string]float64{"a": 1.0},
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace("a")
	for _, tp := range []float64{0.5e-9, 1e-9, 2e-9} {
		want := math.Exp(-tp / 1e-9)
		got := tr.At(tp)
		if math.Abs(got-want) > 0.03 {
			t.Errorf("V(%g) = %g, want %g", tp, got, want)
		}
	}
}

func TestRCChargeThroughSource(t *testing.T) {
	// Source steps 0->1V at 1ns; RC charges toward 1V.
	f := flatten(t, "rc2\nV1 in 0 PWL(0 0 1n 0 1.001n 1)\nR1 in a 1k\nC1 a 0 1p\n")
	res, err := Simulate(f, tech07(), Options{TStop: 5e-9})
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace("a")
	if v := tr.At(0.9e-9); math.Abs(v) > 1e-3 {
		t.Errorf("pre-edge V = %g", v)
	}
	got := tr.At(1e-9 + 2e-9) // two time constants after the edge
	want := 1 - math.Exp(-2.0)
	if math.Abs(got-want) > 0.03 {
		t.Errorf("V = %g, want %g", got, want)
	}
}

func TestFloatingCapDivider(t *testing.T) {
	// A floating cap between a stepped source and a grounded cap forms
	// a capacitive divider: dV_a = dV_in * C1/(C1+C2).
	f := flatten(t, "cdiv\nV1 in 0 PWL(0 0 1n 0 1.01n 1)\nC1 in a 1p\nC2 a 0 1p\n")
	res, err := Simulate(f, tech07(), Options{TStop: 2e-9})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Trace("a").Final()
	if math.Abs(got-0.5) > 0.01 {
		t.Errorf("divider = %g, want 0.5", got)
	}
}

func TestInverterTransient(t *testing.T) {
	c := circuits.InverterChain(tech07(), 1, 50e-15)
	stim := circuit.Stimulus{
		Old:   map[string]bool{"in": false},
		New:   map[string]bool{"in": true},
		TEdge: 0.5e-9, TRise: 50e-12,
	}
	res, err := Run(c, stim, RunOptions{Options: Options{TStop: 4e-9}})
	if err != nil {
		t.Fatal(err)
	}
	out := res.OutTrace("out")
	if out == nil {
		t.Fatal("out not recorded")
	}
	// Before edge: out high; after: out low.
	if v := out.At(0.4e-9); v < 1.1 {
		t.Errorf("pre-edge out = %g, want ~1.2", v)
	}
	if v := out.Final(); v > 0.1 {
		t.Errorf("final out = %g, want ~0", v)
	}
	d, err := res.Delay("out")
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 || d > 2e-9 {
		t.Errorf("inverter delay = %g", d)
	}
	t.Logf("inverter tpdHL = %.3gns, steps=%d sweeps=%d", d*1e9, res.Steps, res.Sweeps)
}

func TestInverterRiseAndFallSymmetric(t *testing.T) {
	c := circuits.InverterChain(tech07(), 1, 50e-15)
	measure := func(oldV, newV bool) float64 {
		stim := circuit.Stimulus{
			Old:   map[string]bool{"in": oldV},
			New:   map[string]bool{"in": newV},
			TEdge: 0.5e-9, TRise: 50e-12,
		}
		res, err := Run(c, stim, RunOptions{Options: Options{TStop: 4e-9}})
		if err != nil {
			t.Fatal(err)
		}
		d, err := res.Delay("out")
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	fall := measure(false, true)
	rise := measure(true, false)
	// The library sizes P at 2x N width but KPp is 2.5x smaller, so
	// rise is somewhat slower; both must be same order.
	if rise < fall*0.8 || rise > fall*3 {
		t.Errorf("tpLH=%g tpHL=%g: implausible asymmetry", rise, fall)
	}
}

func TestNandLogicLevels(t *testing.T) {
	c := circuit.New("nand", tech07())
	c.Input("a")
	c.Input("b")
	c.MustGate(circuit.Nand2, "g", "y", 1, "a", "b")
	c.MarkOutput("y")
	c.SetLoad("y", 20e-15)
	for i := 0; i < 4; i++ {
		a, b := i&1 != 0, i&2 != 0
		stim := circuit.Stimulus{
			Old:   map[string]bool{"a": a, "b": b},
			New:   map[string]bool{"a": a, "b": b},
			TEdge: 0.2e-9, TRise: 10e-12,
		}
		res, err := Run(c, stim, RunOptions{Options: Options{TStop: 2e-9}})
		if err != nil {
			t.Fatal(err)
		}
		v := res.OutTrace("y").Final()
		want := 0.0
		if !(a && b) {
			want = 1.2
		}
		if math.Abs(v-want) > 0.08 {
			t.Errorf("nand(%v,%v) settles at %gV, want %g", a, b, v, want)
		}
	}
}

func TestMTCMOSInverterBounceAndDelay(t *testing.T) {
	delays := map[float64]float64{}
	bounces := map[float64]float64{}
	for _, wl := range []float64{2, 20} {
		c := circuits.InverterChain(tech07(), 1, 50e-15)
		c.SleepWL = wl
		stim := circuit.Stimulus{
			Old:   map[string]bool{"in": false},
			New:   map[string]bool{"in": true},
			TEdge: 0.5e-9, TRise: 50e-12,
		}
		res, err := Run(c, stim, RunOptions{Options: Options{TStop: 6e-9}})
		if err != nil {
			t.Fatal(err)
		}
		d, err := res.Delay("out")
		if err != nil {
			t.Fatal(err)
		}
		delays[wl] = d
		vg := res.VGndTrace()
		if vg == nil {
			t.Fatal("virtual ground not recorded")
		}
		peak, _ := vg.Peak(0, 6e-9)
		bounces[wl] = peak
	}
	if bounces[2] <= bounces[20] {
		t.Errorf("smaller sleep device must bounce more: %v", bounces)
	}
	if delays[2] <= delays[20] {
		t.Errorf("smaller sleep device must be slower: %v", delays)
	}
	if bounces[2] < 0.02 {
		t.Errorf("W/L=2 bounce suspiciously small: %g", bounces[2])
	}
	t.Logf("bounce W/L=2: %.0fmV, W/L=20: %.0fmV; delay ratio %.2f",
		bounces[2]*1e3, bounces[20]*1e3, delays[2]/delays[20])
}

func TestCompileErrors(t *testing.T) {
	cases := []string{
		"bad\nV1 a b DC 1\n",                // ungrounded source
		"bad\nM1 a b c 0 weird W=1u L=1u\n", // unknown model
		"bad\nV1 a 0 DC 1\nV2 a 0 DC 2\n",   // double-driven node
		"bad\nR1 a 0 -5\n",                  // negative resistor
	}
	for i, deck := range cases {
		f := flatten(t, deck)
		if _, err := Compile(f, tech07()); err == nil {
			t.Errorf("case %d must fail compile", i)
		}
	}
}

func TestRunOptionValidation(t *testing.T) {
	f := flatten(t, "ok\nR1 a 0 1k\nC1 a 0 1p\n")
	if _, err := Simulate(f, tech07(), Options{}); err == nil {
		t.Error("TStop=0 must fail")
	}
	if _, err := Simulate(f, tech07(), Options{TStop: math.NaN()}); err == nil {
		t.Error("TStop=NaN must fail")
	}
	if res, err := Simulate(f, tech07(), Options{TStop: math.Inf(1)}); err == nil || res != nil {
		t.Errorf("TStop=+Inf must fail before the run, got res=%v err=%v", res, err)
	}
}

func TestFloatingNodeHoldsCharge(t *testing.T) {
	// A node with only a grounded cap and no conduction path keeps its
	// seed.
	f := flatten(t, "hold\nC1 a 0 1f\n")
	res, err := Simulate(f, tech07(), Options{TStop: 1e-9, InitialV: map[string]float64{"a": 0.7}})
	if err != nil {
		t.Fatal(err)
	}
	if v := res.Trace("a").Final(); math.Abs(v-0.7) > 1e-6 {
		t.Errorf("floating node drifted to %g", v)
	}
}

func TestSampleDecimation(t *testing.T) {
	f := flatten(t, "rc\nR1 a 0 1k\nC1 a 0 1p\n")
	res, err := Simulate(f, tech07(), Options{
		TStop:    2e-9,
		SampleDT: 0.2e-9,
		InitialV: map[string]float64{"a": 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	n := res.Trace("a").Len()
	if n > 16 {
		t.Errorf("decimated trace has %d samples", n)
	}
}

func TestPulseClockedInverter(t *testing.T) {
	// A PULSE-clocked inverter must toggle every period.
	deck := "clk\nVdd vdd 0 DC 1.2\n" +
		"Vin in 0 PULSE(0 1.2 1n 0.05n 0.05n 2n 4n)\n" +
		"Mp out in vdd vdd pmos W=2.8u L=0.7u\n" +
		"Mn out in 0 0 nmos W=1.4u L=0.7u\n" +
		"Cl out 0 20f\n"
	f := flatten(t, deck)
	res, err := Simulate(f, tech07(), Options{TStop: 9e-9})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Trace("out")
	// in low until 1ns -> out high; in high 1-3ns -> out low;
	// in low 3-5ns -> out high; in high 5-7ns -> out low.
	for _, c := range []struct{ at, lo, hi float64 }{
		{0.9e-9, 1.1, 1.3},
		{2.5e-9, -0.1, 0.1},
		{4.5e-9, 1.1, 1.3},
		{6.5e-9, -0.1, 0.1},
		{8.5e-9, 1.1, 1.3},
	} {
		if v := out.At(c.at); v < c.lo || v > c.hi {
			t.Errorf("out(%.1fns) = %.3f, want in [%g, %g]", c.at*1e9, v, c.lo, c.hi)
		}
	}
}
