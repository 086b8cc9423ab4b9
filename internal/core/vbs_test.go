package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mtcmos/internal/circuit"
	"mtcmos/internal/circuits"
	"mtcmos/internal/mosfet"
	"mtcmos/internal/simerr"
)

func tech07() *mosfet.Tech { t := mosfet.Tech07(); return &t }

func stepStim(name string, oldV, newV bool) circuit.Stimulus {
	return circuit.Stimulus{
		Old:   map[string]bool{name: oldV},
		New:   map[string]bool{name: newV},
		TEdge: 1e-9, TRise: 50e-12,
	}
}

func TestSingleInverterCMOSAnalytic(t *testing.T) {
	// Plain CMOS inverter: constant-current discharge, so
	// tpdHL = CL*(Vdd/2)/Isat exactly (paper Eq. 3).
	tech := tech07()
	c := circuits.InverterChain(tech, 1, 50e-15)
	res, err := Simulate(c, stepStim("in", false, true), Options{})
	if err != nil {
		t.Fatal(err)
	}
	d, ok := res.Delay("out")
	if !ok {
		t.Fatal("out never toggled")
	}
	cl := c.NetCap(c.FindNet("out"))
	isat := 0.5 * tech.KPn * 2 * math.Pow(tech.Vdd, 2-tech.Alpha) *
		math.Pow(tech.Vdd-tech.Vtn, tech.Alpha)
	want := cl * (tech.Vdd / 2) / isat
	if math.Abs(d-want)/want > 1e-9 {
		t.Errorf("tpdHL = %g, want analytic %g", d, want)
	}
	if res.VGnd != nil {
		t.Error("plain CMOS must not report a virtual ground")
	}
}

func TestFinalLogicMatchesEvaluate(t *testing.T) {
	ad := circuits.RippleCarryAdder(tech07(), 3, 20e-15)
	ad.SleepWL = 10
	for _, vec := range [][4]uint64{{0, 0, 7, 5}, {1, 6, 2, 2}, {7, 7, 0, 1}, {5, 2, 3, 4}} {
		stim := circuit.Stimulus{
			Old:   ad.Inputs(vec[0], vec[1], false),
			New:   ad.Inputs(vec[2], vec[3], false),
			TEdge: 1e-9, TRise: 50e-12,
		}
		res, err := Simulate(ad.Circuit, stim, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := ad.Evaluate(stim.New)
		if err != nil {
			t.Fatal(err)
		}
		for net, wv := range want {
			if res.Final[net] != wv {
				t.Errorf("vec %v: net %s settled %v, want %v", vec, net, res.Final[net], wv)
			}
		}
		if res.Stalled {
			t.Errorf("vec %v stalled", vec)
		}
	}
}

func TestTreeDelayMonotoneInSleepWL(t *testing.T) {
	tech := tech07()
	outs := make([]string, 9)
	for i := range outs {
		outs[i] = "s3_" + string(rune('0'+i))
	}
	prev := 0.0
	var cmosDelay float64
	for _, wl := range []float64{0, 20, 14, 8, 5, 2} {
		c := circuits.InverterTree(tech, 3, 3, 50e-15)
		c.SleepWL = wl
		res, err := Simulate(c, stepStim("in", false, true), Options{})
		if err != nil {
			t.Fatalf("wl=%g: %v", wl, err)
		}
		d, _, ok := res.MaxDelay(outs)
		if !ok {
			t.Fatalf("wl=%g: no output toggled", wl)
		}
		if wl == 0 {
			cmosDelay = d
			prev = d
			continue
		}
		// Shrinking the sleep device must slow the circuit (paper
		// Fig. 5/10: delay grows as W/L decreases).
		if d <= prev {
			t.Errorf("delay not increasing as W/L shrinks: wl=%g d=%g prev=%g", wl, d, prev)
		}
		if d <= cmosDelay {
			t.Errorf("MTCMOS delay %g must exceed CMOS baseline %g", d, cmosDelay)
		}
		prev = d
		if res.PeakVx <= 0 {
			t.Errorf("wl=%g: no virtual ground bounce recorded", wl)
		}
	}
	// Very large sleep device approaches the CMOS baseline.
	c := circuits.InverterTree(tech, 3, 3, 50e-15)
	c.SleepWL = 100000
	res, err := Simulate(c, stepStim("in", false, true), Options{})
	if err != nil {
		t.Fatal(err)
	}
	d, _, _ := res.MaxDelay(outs)
	if math.Abs(d-cmosDelay)/cmosDelay > 0.01 {
		t.Errorf("huge sleep device delay %g, CMOS %g", d, cmosDelay)
	}
}

func TestVGndStepwiseTrace(t *testing.T) {
	c := circuits.InverterTree(tech07(), 3, 3, 50e-15)
	c.SleepWL = 8
	res, err := Simulate(c, stepStim("in", false, true), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.VGnd == nil || len(res.VGnd.T) < 4 {
		t.Fatal("expected a multi-step virtual ground waveform")
	}
	if res.PeakVx <= 0.01 {
		t.Errorf("peak Vx = %g, expected visible bounce", res.PeakVx)
	}
	if res.PeakISleep <= 0 {
		t.Error("no sleep current recorded")
	}
	// The third stage (9 gates) must bounce more than the first (1).
	// Peak should occur after the input edge.
	_, tPeak := peak(res.VGnd)
	if tPeak < res.TEdge {
		t.Errorf("bounce peak at %g before edge %g", tPeak, res.TEdge)
	}
}

func peak(w interface {
	At(float64) float64
	End() float64
}) (float64, float64) {
	// crude scan for test purposes
	best, bt := -1.0, 0.0
	end := w.End()
	for i := 0; i <= 1000; i++ {
		tt := end * float64(i) / 1000
		if v := w.At(tt); v > best {
			best, bt = v, tt
		}
	}
	return best, bt
}

func TestGlitchPropagation(t *testing.T) {
	// y = NAND(in, INV(INV(in))): on a rising input, y dips low and
	// recovers once the two-inverter path catches up — the simulator
	// must produce at least two crossings on y.
	c := circuit.New("glitch", tech07())
	c.Input("in")
	c.MustGate(circuit.Inv, "i1", "n1", 1, "in")
	c.MustGate(circuit.Inv, "i2", "n2", 1, "n1")
	c.MustGate(circuit.Nand2, "g", "y", 1, "in", "n2")
	c.MarkOutput("y")
	c.SetLoad("y", 5e-15)
	res, err := Simulate(c, stepStim("in", false, true), Options{TraceNets: []string{"y"}})
	if err != nil {
		t.Fatal(err)
	}
	// in: 0->1, n2 follows in after two gate delays. Steady y = NAND(1,1) = 0.
	// Transiently y sees (1, n2=0) = 1 (no change from old y=1)... old
	// state: in=0 -> y=1. New steady: y=0. The glitch path: y starts
	// falling at the edge? No: y falls only when both inputs high, which
	// happens after n2 rises. Old n2=0 (in=0 -> n1=1 -> n2=0).
	// So y falls once n2 crosses: exactly one crossing, delayed by the
	// inverter pair. Verify the delay exceeds the direct-path delay.
	dy, ok := res.Delay("y")
	if !ok {
		t.Fatal("y never fell")
	}
	dn2, ok := res.Delay("n2")
	if !ok {
		t.Fatal("n2 never rose")
	}
	if dy <= dn2 {
		t.Errorf("y delay %g must exceed its enabling input's %g", dy, dn2)
	}
}

func TestMidFlightReversal(t *testing.T) {
	// y = NAND(a, b) where a rises and then — via a long inverter chain
	// driving b low — the pulldown condition disappears; with a heavy
	// load on y, y is still mid-fall when b drops, so it must reverse
	// and recover to Vdd: a classic glitch the breakpoint recompute
	// must handle.
	c := circuit.New("reversal", tech07())
	c.Input("a")
	prev := "a"
	for i := 1; i <= 3; i++ {
		out := "n" + string(rune('0'+i))
		c.MustGate(circuit.Inv, "i"+string(rune('0'+i)), out, 1, prev)
		prev = out
	}
	// prev = INV^3(a): falls (slowly, 3 gate delays) after a rises.
	c.MustGate(circuit.Nand2, "g", "y", 1, "a", prev)
	c.MarkOutput("y")
	c.SetLoad("y", 400e-15) // heavy load: y falls slowly
	res, err := Simulate(c, stepStim("a", false, true), Options{TraceNets: []string{"y"}})
	if err != nil {
		t.Fatal(err)
	}
	// Steady state: a=1, prev=0 -> y=1 (same as old). If y dipped below
	// Vdd/2 there were 2 crossings; either way final must be high.
	if !res.Final["y"] {
		t.Fatal("y must settle high")
	}
	w := res.Waves["y"]
	if w == nil {
		t.Fatal("y not traced")
	}
	min := math.Inf(1)
	for _, v := range w.V {
		if v < min {
			min = v
		}
	}
	if min >= 1.19 {
		t.Errorf("expected a visible dip on y, min=%g", min)
	}
	if w.Final() < 1.19 {
		t.Errorf("y must recover to Vdd, final=%g", w.Final())
	}
}

func TestCxReducesBounce(t *testing.T) {
	peaks := map[float64]float64{}
	for _, cx := range []float64{0, 2e-12, 20e-12} {
		c := circuits.InverterTree(tech07(), 3, 3, 50e-15)
		c.SleepWL = 8
		c.VGndCap = cx
		res, err := Simulate(c, stepStim("in", false, true), Options{})
		if err != nil {
			t.Fatalf("cx=%g: %v", cx, err)
		}
		peaks[cx] = res.PeakVx
	}
	if !(peaks[20e-12] < peaks[2e-12] && peaks[2e-12] < peaks[0]) {
		t.Errorf("larger Cx must filter the bounce: %v", peaks)
	}
}

func TestReverseConduction(t *testing.T) {
	base := circuits.RippleCarryAdder(tech07(), 3, 20e-15)
	base.SleepWL = 6
	stim := circuit.Stimulus{
		Old:   base.Inputs(0, 0, false),
		New:   base.Inputs(7, 1, false),
		TEdge: 1e-9, TRise: 50e-12,
	}
	plain, err := Simulate(base.Circuit, stim, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rev, err := Simulate(base.Circuit, stim, Options{ReverseConduction: true})
	if err != nil {
		t.Fatal(err)
	}
	if rev.NoiseMarginLoss <= 0 {
		t.Error("reverse conduction must report noise margin loss")
	}
	outs := []string{"s0", "s1", "s2", "cout"}
	dp, _, _ := plain.MaxDelay(outs)
	dr, _, _ := rev.MaxDelay(outs)
	if dr > dp*1.0000001 {
		t.Errorf("reverse conduction must not slow the circuit: %g vs %g", dr, dp)
	}
}

func TestTStopCapsSimulation(t *testing.T) {
	c := circuits.InverterTree(tech07(), 3, 3, 50e-15)
	c.SleepWL = 2
	res, err := Simulate(c, stepStim("in", false, true), Options{TStop: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if res.TEnd > res.TEdge+1.1e-12 {
		t.Errorf("TStop ignored: TEnd=%g", res.TEnd)
	}
}

func TestAdderSubsetSweepFast(t *testing.T) {
	// A slice of the paper's 4096-vector exhaustive sweep must run in
	// well under a second and produce functionally correct results.
	ad := circuits.RippleCarryAdder(tech07(), 3, 20e-15)
	ad.SleepWL = 10
	count := 0
	for a0 := uint64(0); a0 < 8; a0 += 3 {
		for b0 := uint64(0); b0 < 8; b0 += 3 {
			for a1 := uint64(0); a1 < 8; a1 += 2 {
				for b1 := uint64(0); b1 < 8; b1 += 2 {
					stim := circuit.Stimulus{
						Old:   ad.Inputs(a0, b0, false),
						New:   ad.Inputs(a1, b1, false),
						TEdge: 1e-9, TRise: 50e-12,
					}
					res, err := Simulate(ad.Circuit, stim, Options{})
					if err != nil {
						t.Fatal(err)
					}
					want, _ := ad.Evaluate(stim.New)
					sum, cout := ad.Result(res.Final)
					wsum, wcout := ad.Result(want)
					if sum != wsum || cout != wcout {
						t.Fatalf("(%d,%d)->(%d,%d): sum=%d/%v want %d/%v",
							a0, b0, a1, b1, sum, cout, wsum, wcout)
					}
					count++
				}
			}
		}
	}
	if count != 9*16 {
		t.Fatalf("ran %d vectors", count)
	}
}

// Property: for random adder vector pairs and sleep sizes, delay is
// monotone non-increasing in W/L and the simulation is deterministic.
func TestDelayMonotoneProperty(t *testing.T) {
	ad := circuits.RippleCarryAdder(tech07(), 3, 20e-15)
	outs := []string{"s0", "s1", "s2", "cout"}
	f := func(a0, b0, a1, b1 uint8, wlSeed uint8) bool {
		stim := circuit.Stimulus{
			Old:   ad.Inputs(uint64(a0&7), uint64(b0&7), false),
			New:   ad.Inputs(uint64(a1&7), uint64(b1&7), false),
			TEdge: 1e-9, TRise: 50e-12,
		}
		wl := 2 + float64(wlSeed%40)
		ad.SleepWL = wl
		r1, err := Simulate(ad.Circuit, stim, Options{})
		if err != nil {
			return false
		}
		r1b, err := Simulate(ad.Circuit, stim, Options{})
		if err != nil {
			return false
		}
		d1, _, ok1 := r1.MaxDelay(outs)
		d1b, _, _ := r1b.MaxDelay(outs)
		if d1 != d1b {
			return false // nondeterministic
		}
		ad.SleepWL = wl * 3
		r2, err := Simulate(ad.Circuit, stim, Options{})
		if err != nil {
			return false
		}
		d2, _, ok2 := r2.MaxDelay(outs)
		if !ok1 {
			return !ok2 || d2 >= 0 // nothing toggled: trivially fine
		}
		// The settling delay is monotone in W/L only for clean
		// transitions: virtual-ground bounce reshapes glitches, so a
		// multi-crossing output can legally settle later at a larger
		// sleep size even when the crossing count is unchanged (the
		// last pulse widens past Vdd/2 later). Compare per output and
		// only where both runs saw a single crossing.
		for _, n := range outs {
			if len(r1.Crossings[n]) != 1 || len(r2.Crossings[n]) != 1 {
				continue
			}
			p1, _ := r1.Delay(n)
			p2, _ := r2.Delay(n)
			if p2 > p1*1.0000001 {
				return false
			}
		}
		return true
	}
	// Fixed seed: reproducible counterexamples, stable CI.
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestSimulateValidation(t *testing.T) {
	c := circuit.New("bad", nil)
	c.Input("a")
	c.MustGate(circuit.Inv, "g", "y", 1, "a")
	if _, err := Simulate(c, circuit.Stimulus{}, Options{}); err == nil {
		t.Error("nil tech must fail")
	}
}

func TestMaxEventsGuard(t *testing.T) {
	c := circuits.InverterTree(tech07(), 3, 3, 50e-15)
	c.SleepWL = 8
	res, err := Simulate(c, stepStim("in", false, true), Options{MaxEvents: 2})
	if err == nil {
		t.Fatal("tiny MaxEvents must error")
	}
	if res == nil {
		t.Fatal("partial result must be returned alongside the error")
	}
}

func TestActivityRecording(t *testing.T) {
	c := circuits.InverterChain(tech07(), 4, 20e-15)
	res, err := Simulate(c, stepStim("in", false, true), Options{RecordActivity: true})
	if err != nil {
		t.Fatal(err)
	}
	// Rising input: gates 1 and 3 fall (odd inversions), 2 and 4 rise.
	falls := 0
	for _, ivs := range res.Activity {
		for _, iv := range ivs {
			if iv.End <= iv.Start {
				t.Errorf("bad interval %+v", iv)
			}
			falls++
		}
	}
	if falls != 2 {
		t.Errorf("expected 2 discharge intervals in a 4-chain, got %d", falls)
	}
}

func TestBudgetAndCancellationTyped(t *testing.T) {
	c := circuits.InverterTree(tech07(), 3, 3, 50e-15)
	c.SleepWL = 8
	stim := stepStim("in", false, true)

	res, err := Simulate(c, stim, Options{MaxEvents: 2})
	if !errors.Is(err, simerr.ErrBudget) {
		t.Fatalf("MaxEvents must classify as ErrBudget, got %v", err)
	}
	var se *simerr.Error
	if !errors.As(err, &se) || se.Op != "core" {
		t.Fatalf("error must be a core *simerr.Error, got %v", err)
	}
	if res == nil {
		t.Fatal("partial result must be returned")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err = Simulate(c, stim, Options{Ctx: ctx})
	if !errors.Is(err, simerr.ErrCancelled) {
		t.Fatalf("cancelled context must classify as ErrCancelled, got %v", err)
	}
	if res == nil {
		t.Fatal("partial result must be returned on cancellation")
	}

	bctx, bcancel := context.WithTimeoutCause(context.Background(), 0,
		simerr.New(simerr.ErrBudget, "cli", "-timeout elapsed"))
	defer bcancel()
	<-bctx.Done()
	_, err = Simulate(c, stim, Options{Ctx: bctx})
	if !errors.Is(err, simerr.ErrBudget) {
		t.Fatalf("budget-caused deadline must classify as ErrBudget, got %v", err)
	}

	// A plain deadline is the wall-clock budget: ErrBudget, as sched
	// and the reference engine classify it.
	dctx, dcancel := context.WithTimeout(context.Background(), 0)
	defer dcancel()
	<-dctx.Done()
	res, err = Simulate(c, stim, Options{Ctx: dctx})
	if !errors.Is(err, simerr.ErrBudget) {
		t.Fatalf("a plain deadline must classify as ErrBudget, got %v", err)
	}
	if res == nil {
		t.Fatal("partial result must be returned on wall budget")
	}
}
