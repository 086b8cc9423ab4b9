package faultinject

import (
	"errors"
	"math"
	"sync"
	"testing"

	"mtcmos/internal/mosfet"
	"mtcmos/internal/netlist"
	"mtcmos/internal/simerr"
	"mtcmos/internal/spice"
)

// invDeck is a plain CMOS inverter with a 50fF load; the input rises at
// 1ns so all interesting solver activity sits just after 1ns. The
// output node is the only free node, which keeps every diagnostic
// deterministic ("out" is always the worst node). The input's last
// corner, at 1.1ns, changes nothing but makes steps land there: the
// engine restarts with a short step after every source corner, so the
// 10ps fault windows starting at 1.1ns always catch a step.
const invDeck = `inverter
Vdd vdd 0 DC 1.2
Vin in 0 PWL(0 0 1n 0 1.05n 1.2 1.1n 1.2)
Mn out in 0 0 nmos W=1.4u L=0.7u
Mp out in vdd vdd pmos W=2.8u L=0.7u
Cl out 0 50f
`

func invFlat(t *testing.T) (*netlist.Flat, *mosfet.Tech) {
	t.Helper()
	nl, err := netlist.ParseString(invDeck)
	if err != nil {
		t.Fatal(err)
	}
	f, err := nl.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	tech := mosfet.Tech07()
	return f, &tech
}

// runWith simulates the inverter under the given injector. DTMin is
// raised so timestep back-off cannot shrink the step far enough for a
// stuck fault's jitter to fall below the convergence tolerance — the
// ladder must escalate instead.
func runWith(t *testing.T, inj *Injector, opts spice.Options) (*spice.Result, error) {
	t.Helper()
	f, tech := invFlat(t)
	if opts.TStop == 0 {
		opts.TStop = 2.5e-9
	}
	if opts.DTMin == 0 {
		opts.DTMin = 1e-13
	}
	if opts.InitialV == nil {
		opts.InitialV = map[string]float64{"out": 1.2}
	}
	opts.Intercept = inj.Intercept
	return spice.Simulate(f, tech, opts)
}

func TestBaselineConverges(t *testing.T) {
	res, err := runWith(t, New(), spice.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Recovery.Rescued != 0 {
		t.Errorf("clean run must not need rescue, stats %+v", res.Recovery)
	}
	if v := res.Trace("out").At(2.5e-9); v > 0.6 {
		t.Errorf("final V(out) = %g, inverter must have switched low", v)
	}
}

// TestEachRungRescues seeds a stuck-iteration fault that clears only
// once the engine escalates to a given recovery rung, proving each rung
// fires in ladder order and rescues the run: every rung below the
// target keeps failing, the target rung sees a clean circuit and
// converges, and the waveform stays physical.
func TestEachRungRescues(t *testing.T) {
	cases := []struct {
		name  string
		fault Fault
		check func(t *testing.T, st spice.RecoveryStats)
	}{
		// One failed 60-iteration attempt evaluates the target device
		// 60 times, so a Count of 300 poisons the first attempt of five
		// consecutive steps; the fault clears at the back-off rung, so
		// each is rescued by back-off alone.
		{"backoff", Fault{
			Kind: Stuck, Device: "mn", Start: 1.1e-9, Count: 300,
			ClearAtRung: spice.RungBackoff,
		}, func(t *testing.T, st spice.RecoveryStats) {
			if st.Backoffs == 0 {
				t.Errorf("back-off must fire, stats %+v", st)
			}
			if st.Dampings+st.GminSteps+st.SourceRamps != 0 {
				t.Errorf("higher rungs must not fire, stats %+v", st)
			}
		}},
		{"damping", Fault{
			Kind: Stuck, Device: "mn", Start: 1.1e-9, End: 1.11e-9,
			ClearAtRung: spice.RungDamping,
		}, func(t *testing.T, st spice.RecoveryStats) {
			if st.Dampings == 0 || st.Rescued == 0 {
				t.Errorf("damping must rescue, stats %+v", st)
			}
			if st.GminSteps+st.SourceRamps != 0 {
				t.Errorf("higher rungs must not fire, stats %+v", st)
			}
		}},
		{"gmin", Fault{
			Kind: Stuck, Device: "mn", Start: 1.1e-9, End: 1.11e-9,
			ClearAtRung: spice.RungGmin,
		}, func(t *testing.T, st spice.RecoveryStats) {
			if st.GminSteps == 0 || st.Rescued == 0 {
				t.Errorf("gmin stepping must rescue, stats %+v", st)
			}
			if st.SourceRamps != 0 {
				t.Errorf("source ramp must not fire, stats %+v", st)
			}
		}},
		{"source-ramp", Fault{
			Kind: Stuck, Device: "mn", Start: 1.1e-9, End: 1.11e-9,
			ClearAtRung: spice.RungSourceRamp,
		}, func(t *testing.T, st spice.RecoveryStats) {
			if st.SourceRamps == 0 || st.Rescued == 0 {
				t.Errorf("source ramping must rescue, stats %+v", st)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// All faults target a single device (a bias applied to
			// every device on the node would cancel in the KCL sum)
			// and start at the input's 1.1ns corner, so the first
			// faulty step is the restart step after it, and back-off
			// halves it down to DTMin before the ladder climbs.
			inj := New(tc.fault)
			res, err := runWith(t, inj, spice.Options{})
			if err != nil {
				t.Fatalf("run must be rescued by %v, got %v", tc.fault.ClearAtRung, err)
			}
			if inj.Hits(0) == 0 {
				t.Fatal("fault never perturbed an evaluation")
			}
			tc.check(t, res.Recovery)
			// The rescued run must still produce physics: the output
			// has switched low well before the end of the transient.
			if v := res.Trace("out").At(2.5e-9); v > 0.6 {
				t.Errorf("final V(out) = %g, rescued run lost the waveform", v)
			}
		})
	}
}

func TestNaNFailsFastWithDiagnostics(t *testing.T) {
	inj := New(Fault{Kind: NaN, Device: "mn", Start: 1.2e-9})
	res, err := runWith(t, inj, spice.Options{})
	if !errors.Is(err, simerr.ErrNumerical) {
		t.Fatalf("want ErrNumerical, got %v", err)
	}
	var se *simerr.Error
	if !errors.As(err, &se) {
		t.Fatalf("error must be a *simerr.Error, got %T", err)
	}
	if se.Node != "out" {
		t.Errorf("error must name the poisoned node, got %q", se.Node)
	}
	if se.T < 1.2e-9 {
		t.Errorf("failure time %g must be inside the fault window", se.T)
	}
	if res == nil {
		t.Fatal("partial result must be returned")
	}
	tr := res.Trace("out")
	if tr == nil || tr.Len() < 2 {
		t.Fatal("partial result must carry the pre-failure waveform")
	}
	if last := tr.T[tr.Len()-1]; last > 1.2e-9 {
		t.Errorf("last accepted sample %g must precede the poisoned step", last)
	}
}

func TestLadderExhaustedTypedError(t *testing.T) {
	// The fault never clears, so every rung fails and the run ends in a
	// classified non-convergence with the partial waveform intact.
	inj := New(Fault{Kind: Stuck, Device: "mn", Start: 1.0e-9})
	res, err := runWith(t, inj, spice.Options{})
	if !errors.Is(err, simerr.ErrNoConvergence) {
		t.Fatalf("want ErrNoConvergence, got %v", err)
	}
	var se *simerr.Error
	if !errors.As(err, &se) {
		t.Fatalf("error must be a *simerr.Error, got %T", err)
	}
	if se.Node != "out" {
		t.Errorf("error must name the worst node, got %q", se.Node)
	}
	if se.Dt <= 0 || se.Steps == 0 || se.Sweeps == 0 {
		t.Errorf("diagnostics must be populated: %+v", se)
	}
	if res == nil || res.Trace("out").Len() < 2 {
		t.Fatal("partial result must carry the pre-failure waveform")
	}
	st := res.Recovery
	if st.Backoffs == 0 {
		t.Errorf("the whole ladder must have been tried, stats %+v", st)
	}
	if st.Rescued != 0 {
		t.Errorf("nothing can rescue a permanent fault, stats %+v", st)
	}
}

func TestRecoveryDisabledFailsAtBackoff(t *testing.T) {
	inj := New(Fault{Kind: Stuck, Device: "mn", Start: 1.0e-9})
	res, err := runWith(t, inj, spice.Options{
		Recovery: spice.Recovery{Disable: true},
	})
	if !errors.Is(err, simerr.ErrNoConvergence) {
		t.Fatalf("want ErrNoConvergence, got %v", err)
	}
	if res == nil {
		t.Fatal("partial result must be returned")
	}
	st := res.Recovery
	if st.Dampings+st.GminSteps+st.SourceRamps != 0 {
		t.Errorf("disabled recovery must stop at back-off, stats %+v", st)
	}
}

func TestInjectorScheduling(t *testing.T) {
	inj := New(
		Fault{Kind: Spike, Device: "m1", Start: 1, End: 2, Magnitude: 10},
		Fault{Kind: NaN, Start: 5, Count: 1},
	)
	at := func(dev string, tm float64) float64 {
		return inj.Intercept(spice.EvalInfo{Device: dev, T: tm}, 1)
	}
	if got := at("m2", 1.5); got != 1 {
		t.Errorf("device filter: got %g", got)
	}
	if got := at("m1", 0.5); got != 1 {
		t.Errorf("before window: got %g", got)
	}
	if got := at("m1", 1.5); got != 10 {
		t.Errorf("spike: got %g", got)
	}
	if got := at("m1", 2.5); got != 1 {
		t.Errorf("after window: got %g", got)
	}
	if got := at("m9", 5); !math.IsNaN(got) {
		t.Errorf("NaN fault: got %g", got)
	}
	if got := at("m9", 5); math.IsNaN(got) {
		t.Error("Count=1 must cap the NaN fault after one hit")
	}
	if inj.Hits(0) != 1 || inj.Hits(1) != 1 {
		t.Errorf("hits = %d, %d; want 1, 1", inj.Hits(0), inj.Hits(1))
	}
	inj.Reset()
	if inj.Hits(0) != 0 || inj.Hits(1) != 0 {
		t.Error("Reset must zero the counters")
	}

	cleared := New(Fault{Kind: Spike, Magnitude: 3, ClearAtRung: spice.RungGmin})
	if got := cleared.Intercept(spice.EvalInfo{Rung: spice.RungDamping}, 1); got != 3 {
		t.Errorf("below ClearAtRung the fault must be live: got %g", got)
	}
	if got := cleared.Intercept(spice.EvalInfo{Rung: spice.RungGmin}, 1); got != 1 {
		t.Errorf("at ClearAtRung the fault must be inert: got %g", got)
	}
	if got := cleared.Intercept(spice.EvalInfo{Rung: spice.RungSourceRamp}, 1); got != 1 {
		t.Errorf("above ClearAtRung the fault must stay inert: got %g", got)
	}
}

func TestStuckAlternatesPerSweep(t *testing.T) {
	inj := New(Fault{Kind: Stuck})
	if got := inj.Intercept(spice.EvalInfo{Sweep: 0}, 0); got != 1e-3 {
		t.Errorf("even sweep: got %g", got)
	}
	if got := inj.Intercept(spice.EvalInfo{Sweep: 0}, 0); got != 1e-3 {
		t.Errorf("bias must be stable within a sweep: got %g", got)
	}
	if got := inj.Intercept(spice.EvalInfo{Sweep: 1}, 0); got != -1e-3 {
		t.Errorf("odd sweep: got %g", got)
	}
}

// TestConcurrentInjection shares one injector across parallel runs of
// the same compiled engine (the parallel-sweep configuration) under
// -race: the spike counters must aggregate exactly, and a Count cap
// must hold globally across runs.
func TestConcurrentInjection(t *testing.T) {
	f, tech := invFlat(t)
	e, err := spice.Compile(f, tech)
	if err != nil {
		t.Fatal(err)
	}
	opts := spice.Options{
		TStop: 2.5e-9, DTMin: 1e-13,
		InitialV: map[string]float64{"out": 1.2},
	}

	// A benign spike (x1: identity) counts evaluations without
	// disturbing the solve, so the run count is deterministic.
	inj := New(Fault{Kind: Spike, Magnitude: 1, Start: 0})
	opts.Intercept = inj.Intercept
	ref, err := e.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	perRun := inj.Hits(0)
	if perRun == 0 || ref.Evals == 0 {
		t.Fatalf("identity spike never fired (hits=%d evals=%d)", perRun, ref.Evals)
	}

	const G = 8
	inj.Reset()
	errs := make([]error, G)
	var wg sync.WaitGroup
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			_, errs[g] = e.Run(opts)
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := inj.Hits(0); got != G*perRun {
		t.Errorf("concurrent hits = %d, want %d (%d runs x %d)", got, G*perRun, G, perRun)
	}

	// Count cap enforced across concurrent runs, exactly.
	const cap = 37
	capped := New(Fault{Kind: Spike, Magnitude: 1, Start: 0, Count: cap})
	opts.Intercept = capped.Intercept
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			_, errs[g] = e.Run(opts)
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := capped.Hits(0); got != cap {
		t.Errorf("capped hits = %d, want exactly %d", got, cap)
	}
}
