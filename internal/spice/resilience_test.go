package spice

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"mtcmos/internal/circuit"
	"mtcmos/internal/circuits"
	"mtcmos/internal/simerr"
)

// resilienceDeck is a switching inverter: the only free node is "out",
// so diagnostics are deterministic.
const resilienceDeck = "inv\n" +
	"Vdd vdd 0 DC 1.2\n" +
	"Vin in 0 PWL(0 0 1n 0 1.05n 1.2)\n" +
	"Mn out in 0 0 nmos W=1.4u L=0.7u\n" +
	"Mp out in vdd vdd pmos W=2.8u L=0.7u\n" +
	"Cl out 0 50f\n"

func TestMaxStepsBudget(t *testing.T) {
	f := flatten(t, resilienceDeck)
	res, err := Simulate(f, tech07(), Options{TStop: 4e-9, MaxSteps: 5})
	if !errors.Is(err, simerr.ErrBudget) {
		t.Fatalf("want ErrBudget, got %v", err)
	}
	if res == nil {
		t.Fatal("partial result must be returned")
	}
	if res.Steps != 5 {
		t.Errorf("budget must stop at 5 accepted steps, got %d", res.Steps)
	}
	if tr := res.Trace("out"); tr == nil || tr.Len() < 2 {
		t.Error("partial result must carry the accepted waveform")
	}
}

func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	f := flatten(t, resilienceDeck)
	res, err := Simulate(f, tech07(), Options{TStop: 4e-9, Ctx: ctx})
	if !errors.Is(err, simerr.ErrCancelled) {
		t.Fatalf("want ErrCancelled, got %v", err)
	}
	if res == nil {
		t.Fatal("partial result must be returned")
	}
	var se *simerr.Error
	if !errors.As(err, &se) {
		t.Fatalf("error must be a *simerr.Error, got %T", err)
	}
}

func TestContextBudgetCause(t *testing.T) {
	// A deadline whose cause is a budget error classifies as ErrBudget,
	// not ErrCancelled: this is how the CLI's -timeout flag is kept
	// distinct from Ctrl-C.
	ctx, cancel := context.WithTimeoutCause(context.Background(), 0,
		simerr.New(simerr.ErrBudget, "cli", "-timeout elapsed"))
	defer cancel()
	<-ctx.Done()
	f := flatten(t, resilienceDeck)
	res, err := Simulate(f, tech07(), Options{TStop: 4e-9, Ctx: ctx})
	if !errors.Is(err, simerr.ErrBudget) {
		t.Fatalf("want ErrBudget from the timeout cause, got %v", err)
	}
	if errors.Is(err, simerr.ErrCancelled) {
		t.Fatal("a budgeted timeout must not classify as cancellation")
	}
	if res == nil {
		t.Fatal("partial result must be returned")
	}
}

// TestPathologicalDecks drives the classic ill-posed deck shapes into
// each typed runtime failure, asserting the error is classified, names
// a node where one is implicated, and always arrives with a non-nil
// partial result.
func TestPathologicalDecks(t *testing.T) {
	// Per-sweep alternating jitter: defeats convergence without
	// breaking the Newton derivative (see internal/faultinject.Stuck).
	stuck := func(from float64) Intercept {
		return func(info EvalInfo, ids float64) float64 {
			// Bias a single device: applied to every device on the
			// node, the jitter would cancel in the KCL sum.
			if info.T < from || info.Device != "mn" {
				return ids
			}
			if info.Iteration%2 == 0 {
				return ids + 1e-3
			}
			return ids - 1e-3
		}
	}
	nanAfter := func(from float64) Intercept {
		return func(info EvalInfo, ids float64) float64 {
			if info.T >= from {
				return math.NaN()
			}
			return ids
		}
	}
	cases := []struct {
		name     string
		deck     string
		opts     Options
		kind     error
		wantNode bool
	}{
		{
			// The gate node fg floats: no capacitance or conduction
			// path defines its voltage, so the channel current of the
			// devices it drives is garbage — modelled here as a NaN evaluation
			// once the transient is underway. The numerical guard must
			// fail fast, naming the poisoned node.
			name: "floating gate driving a device",
			deck: "floatgate\nVdd vdd 0 DC 1.2\n" +
				"Mn out fg 0 0 nmos W=1.4u L=0.7u\n" +
				"Mp out fg vdd vdd pmos W=2.8u L=0.7u\n" +
				"Cl out 0 20f\n",
			opts:     Options{TStop: 2e-9, Intercept: nanAfter(1e-9)},
			kind:     simerr.ErrNumerical,
			wantNode: true,
		},
		{
			// The output node carries no capacitance, so no companion
			// stamp damps its update; with recovery disabled a
			// jittering device current makes the edge step
			// unconvergeable.
			name: "zero-capacitance node",
			deck: "zerocap\nVdd vdd 0 DC 1.2\n" +
				"Vin in 0 PWL(0 0 1n 0 1.05n 1.2)\n" +
				"Mn out in 0 0 nmos W=1.4u L=0.7u\n" +
				"Mp out in vdd vdd pmos W=2.8u L=0.7u\n",
			opts: Options{
				TStop: 2e-9, DTMin: 1e-13,
				Recovery:  Recovery{Disable: true},
				Intercept: stuck(1e-9),
			},
			kind:     simerr.ErrNoConvergence,
			wantNode: true,
		},
		{
			// Two rails shorted through resistors circulate a huge DC
			// loop current through the free node x; the step budget
			// bounds the runaway and salvages what was simulated.
			name: "v-source loop",
			deck: "vloop\nV1 a 0 DC 1.2\nV2 b 0 DC 0\n" +
				"R1 a x 1\nR2 x b 1\nC1 x 0 1f\n",
			opts: Options{TStop: 1e-9, MaxSteps: 3},
			kind: simerr.ErrBudget,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := flatten(t, tc.deck)
			res, err := Simulate(f, tech07(), tc.opts)
			if !errors.Is(err, tc.kind) {
				t.Fatalf("want %v, got %v", tc.kind, err)
			}
			var se *simerr.Error
			if !errors.As(err, &se) {
				t.Fatalf("error must be a *simerr.Error, got %T", err)
			}
			if tc.wantNode && se.Node == "" {
				t.Error("error must name the implicated node")
			}
			if res == nil {
				t.Fatal("partial result must be returned")
			}
			any := false
			for _, tr := range res.Traces {
				if tr.Len() > 0 {
					any = true
				}
			}
			if !any {
				t.Error("partial result must carry at least the initial sample")
			}
		})
	}
}

// TestVSourceConflictRejected documents the compile-time flavor of the
// V-source loop: two ideal sources fighting over one node cannot run at
// all, so it is rejected as a configuration error with a nil result.
func TestVSourceConflictRejected(t *testing.T) {
	f := flatten(t, "vshort\nV1 a 0 DC 1.2\nV2 a 0 DC 0\nR1 a 0 1k\n")
	res, err := Simulate(f, tech07(), Options{TStop: 1e-9})
	if err == nil || res != nil {
		t.Fatalf("conflicting sources must be rejected pre-run, got res=%v err=%v", res, err)
	}
}

// TestRunReturnsPartialOnFailure covers the Run wrapper: a runtime
// failure must surface the partial waveform alongside the typed error
// instead of dropping it (historically Run returned nil on
// non-convergence).
func TestRunReturnsPartialOnFailure(t *testing.T) {
	c := circuits.InverterChain(tech07(), 1, 50e-15)
	stim := circuit.Stimulus{
		Old:   map[string]bool{"in": false},
		New:   map[string]bool{"in": true},
		TEdge: 0.5e-9, TRise: 50e-12,
	}
	rr, err := Run(c, stim, RunOptions{Options: Options{
		TStop: 4e-9,
		Intercept: func(info EvalInfo, ids float64) float64 {
			if info.T >= 1e-9 {
				return math.NaN()
			}
			return ids
		},
	}})
	if !errors.Is(err, simerr.ErrNumerical) {
		t.Fatalf("want ErrNumerical, got %v", err)
	}
	if rr == nil || rr.Result == nil {
		t.Fatal("Run must return the partial result alongside the error")
	}
	if tr := rr.OutTrace("out"); tr == nil || tr.Len() < 2 {
		t.Error("partial result must carry the pre-failure waveform")
	}
}

// TestStandbyContext: the context form of Standby stops its warm-up and
// DC solves under a fired context, classified like every other run.
func TestStandbyContext(t *testing.T) {
	ad := circuits.RippleCarryAdder(tech07(), 2, 20e-15)
	ad.SleepWL = 10
	in := ad.Inputs(1, 2, false)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := StandbyContext(ctx, ad.Circuit, in); !errors.Is(err, simerr.ErrCancelled) {
		t.Errorf("cancelled context: err = %v, want ErrCancelled", err)
	}
	bctx, bcancel := context.WithCancelCause(context.Background())
	bcancel(simerr.New(simerr.ErrBudget, "test", "budget spent"))
	if _, err := StandbyContext(bctx, ad.Circuit, in); !errors.Is(err, simerr.ErrBudget) {
		t.Errorf("budget cause: err = %v, want ErrBudget", err)
	}
	want, err := Standby(ad.Circuit, in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := StandbyContext(context.Background(), ad.Circuit, in)
	if err != nil || *got != *want {
		t.Errorf("live context: %+v, %v; want %+v", got, err, want)
	}
}

// TestRunDelayIsSettlingDelay: on the 3-bit adder's (0,0)->(7,1) edge
// at W/L 10, s1 and s2 glitch through Vdd/2 and come back. Delay is
// the last crossing after the edge, as the switch-level engine
// measures it, so the glitches report their settling time and the
// worst delay is s2's, not cout's. The same run at DTMax 0.5ps gives
// 3.191, 4.473 and 4.915 ns.
func TestRunDelayIsSettlingDelay(t *testing.T) {
	ad := circuits.RippleCarryAdder(tech07(), 3, 20e-15)
	ad.SleepWL = 10
	stim := circuit.Stimulus{Old: ad.Inputs(0, 0, false), New: ad.Inputs(7, 1, false), TEdge: 1e-9, TRise: 50e-12}
	res, err := Run(ad.Circuit, stim, RunOptions{Options: Options{TStop: 20e-9, SampleDT: 20e-12}})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ net, want string }{{"s1", "3.187"}, {"cout", "4.469"}, {"s2", "4.91"}} {
		d, err := res.Delay(c.net)
		if got := fmt.Sprintf("%.4g", d*1e9); err != nil || got != c.want {
			t.Errorf("delay %s = %s ns (%v), want %s ns", c.net, got, err, c.want)
		}
	}
	d, net, err := res.MaxDelay([]string{"s0", "s1", "s2", "cout"})
	if got := fmt.Sprintf("%.4g", d*1e9); err != nil || net != "s2" || got != "4.91" {
		t.Errorf("worst delay %s ns on %s (%v), want 4.91 ns on s2", got, net, err)
	}
}
