package faultinject

import (
	"errors"
	"testing"

	"mtcmos/internal/simerr"
	"mtcmos/internal/spice"
)

// These tests pin the recovery-ladder proofs to the Newton step
// solver's own accounting: the ladder enters the matrix solve as an
// omega-damped update vector, a gmin diagonal stamp and ramped source
// values, and one failed attempt evaluates each device once per
// Newton iteration, so the fault counts here are sized in iterations.

// TestBaselineConvergesSparseNewton pins the clean run's cost: each
// Newton iteration evaluates each of the inverter's two devices exactly
// once, and no attempt needs a retry.
func TestBaselineConvergesSparseNewton(t *testing.T) {
	res, err := runWith(t, New(), spice.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Recovery.Rescued != 0 || res.Recovery.Backoffs != 0 {
		t.Errorf("clean run must not need retries, stats %+v", res.Recovery)
	}
	if res.Evals != 2*res.Sweeps {
		t.Errorf("%d evaluations over %d Newton iterations, want 2 per iteration", res.Evals, res.Sweeps)
	}
	if v := res.Trace("out").At(2.5e-9); v > 0.6 {
		t.Errorf("final V(out) = %g, inverter must have switched low", v)
	}
}

// TestEachRungRescuesSparseNewton seeds a stuck-iteration fault that
// clears only at a given rung, with the sparse Newton kernel solving
// every attempt. The alternating bias shifts the stamped residual by
// ±Magnitude between Newton iterations, so the update vector never
// settles below the 20 µV convergence tolerance until the rung that
// clears the fault.
func TestEachRungRescuesSparseNewton(t *testing.T) {
	cases := []struct {
		name  string
		fault Fault
		check func(t *testing.T, st spice.RecoveryStats)
	}{
		// One failed Newton attempt evaluates the target device once
		// per iteration (one stamp pass each), so a 60-iteration
		// attempt burns 60 hits: Count 75 fully poisons the first
		// attempt and expires a few iterations into the next step,
		// keeping the single seeded failure a back-off-only rescue.
		{"backoff", Fault{
			Kind: Stuck, Device: "mn", Start: 1.1e-9, Count: 75,
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
			inj := New(tc.fault)
			res, err := runWith(t, inj, spice.Options{})
			if err != nil {
				t.Fatalf("run must be rescued by %v, got %v", tc.fault.ClearAtRung, err)
			}
			if inj.Hits(0) == 0 {
				t.Fatal("fault never perturbed an evaluation")
			}
			tc.check(t, res.Recovery)
			if v := res.Trace("out").At(2.5e-9); v > 0.6 {
				t.Errorf("final V(out) = %g, rescued run lost the waveform", v)
			}
		})
	}
}

// TestNaNFailsFastSparseNewton: injected NaN poisons the stamped
// residual, and the residual guard must fail fast with the node named
// instead of handing the step to the recovery ladder.
func TestNaNFailsFastSparseNewton(t *testing.T) {
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
	if res == nil || res.Trace("out").Len() < 2 {
		t.Fatal("partial result must carry the pre-failure waveform")
	}
	if res.Recovery.Backoffs != 0 {
		t.Errorf("poison must not be retried, stats %+v", res.Recovery)
	}
}
