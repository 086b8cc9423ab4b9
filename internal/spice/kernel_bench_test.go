package spice

import (
	"context"
	"testing"

	"mtcmos/internal/circuit"
	"mtcmos/internal/circuits"
	"mtcmos/internal/netlist"
)

// Kernel benchmarks: the DC-heavy paths (operating points, standby
// analysis, witness-style DC replay) and the reference transients on
// the analytic-stamp sparse Newton kernel. The custom metrics report
// the step, Newton-iteration and device-evaluation counts per solve, so
// a change in ns/op can be attributed to cheaper iterations or to
// fewer of them.

// engineFor compiles a gate-level circuit under a stimulus and seeds
// node voltages from a logic evaluation of its old vector — the same
// warm start the standby analysis and the experiments use.
func engineFor(b *testing.B, c *circuit.Circuit, stim circuit.Stimulus) (*Engine, map[string]float64) {
	b.Helper()
	nl, err := c.Netlist(stim)
	if err != nil {
		b.Fatal(err)
	}
	f, err := nl.Flatten()
	if err != nil {
		b.Fatal(err)
	}
	e, err := Compile(f, c.Tech)
	if err != nil {
		b.Fatal(err)
	}
	vals, err := c.Evaluate(stim.Old)
	if err != nil {
		b.Fatal(err)
	}
	seed := make(map[string]float64, len(vals))
	for k, bit := range vals {
		if bit {
			seed[netlist.CanonNode(k)] = c.Tech.Vdd
		}
	}
	return e, seed
}

// steady is the stimulus that holds inputs for the whole run.
func steady(inputs map[string]bool) circuit.Stimulus {
	return circuit.Stimulus{Old: inputs, New: inputs}
}

// settled runs the standby analysis's warm-up from seed and returns
// its final node voltages by name.
func settled(b *testing.B, e *Engine, seed map[string]float64) map[string]float64 {
	b.Helper()
	v, err := e.settle(context.Background(), seed)
	if err != nil {
		b.Fatal(err)
	}
	warm := make(map[string]float64, len(e.names))
	for i, name := range e.names {
		warm[name] = v[i]
	}
	return warm
}

func benchOP(b *testing.B, e *Engine, seed map[string]float64) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	iters, evals := 0, 0
	for i := 0; i < b.N; i++ {
		_, st, err := e.OperatingPointStats(seed, 0)
		if err != nil {
			b.Fatal(err)
		}
		iters += st.Iterations
		evals += st.Evals
	}
	b.ReportMetric(float64(iters)/float64(b.N), "newton-iters/op")
	b.ReportMetric(float64(evals)/float64(b.N), "mos-evals/op")
}

// BenchmarkKernelOPAdder: DC operating point of the 4-bit mirror adder.
func BenchmarkKernelOPAdder(b *testing.B) {
	ad := circuits.RippleCarryAdder(tech07(), 4, 20e-15)
	ad.SleepWL = 20
	e, seed := engineFor(b, ad.Circuit, steady(ad.Inputs(9, 6, false)))
	benchOP(b, e, seed)
}

// BenchmarkKernelOPMultiplier: DC operating point of the 4x4 carry-save
// multiplier from a transient-settled warm start — the largest DC
// solve the experiments run per size point, in the two-stage shape the
// standby analysis uses.
func BenchmarkKernelOPMultiplier(b *testing.B) {
	m := circuits.CarrySaveMultiplier(tech07(), 4, 15e-15)
	m.SleepWL = 40
	e, seed := engineFor(b, m.Circuit, steady(m.Inputs(0xF, 0x9)))
	benchOP(b, e, settled(b, e, seed))
}

// benchTransient runs the 20ns reference transient of one transition,
// recording its outputs, the way Run does for the experiments.
func benchTransient(b *testing.B, tr transition) {
	b.Helper()
	e, seed := engineFor(b, tr.c, tr.stim)
	opts := Options{TStop: 20e-9, InitialV: seed, Record: make([]string, len(tr.outs))}
	for i, n := range tr.outs {
		opts.Record[i] = netlist.CanonNode(n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	steps, iters, evals := 0, 0, 0
	for i := 0; i < b.N; i++ {
		res, err := e.Run(opts)
		if err != nil {
			b.Fatal(err)
		}
		steps += res.Steps
		iters += res.Iterations
		evals += res.Evals
	}
	b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
	b.ReportMetric(float64(iters)/float64(b.N), "newton-iters/op")
	b.ReportMetric(float64(evals)/float64(b.N), "mos-evals/op")
}

// BenchmarkKernelTransientAdder: one 20ns transient of adderEdge.
func BenchmarkKernelTransientAdder(b *testing.B) { benchTransient(b, adderEdge()) }

// BenchmarkKernelTransientMultiplier: one 20ns transient of
// multVectorA.
func BenchmarkKernelTransientMultiplier(b *testing.B) { benchTransient(b, multVectorA()) }

// BenchmarkKernelStandby: the full standby-leakage analysis of the
// 3-bit adder (warm-up transient plus two Newton DC solves), the
// workload behind the standby experiment's per-size rows.
func BenchmarkKernelStandby(b *testing.B) {
	ad := circuits.RippleCarryAdder(tech07(), 3, 20e-15)
	ad.SleepWL = 20
	inputs := ad.Inputs(3, 0, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Standby(ad.Circuit, inputs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelWitnessReplay: many small DC solves — the shape of
// replaying prover witnesses through the operating-point solver
// (witness_op_test.go): bias a small deck and solve, repeatedly.
func BenchmarkKernelWitnessReplay(b *testing.B) {
	const deck = "witness replay\n" +
		"Vdd vdd 0 DC 1.2\n" +
		"Vs s 0 DC 1.2\n" +
		"Vt t 0 DC 1.2\n" +
		"Mpu x s vdd vdd pmos W=2.8u L=0.7u\n" +
		"Mpd x t 0 0 nmos W=1.4u L=0.7u\n" +
		"Mq y x vdd vdd pmos W=2.8u L=0.7u\n" +
		"Mr y x 0 0 nmos W=1.4u L=0.7u\n" +
		"Cl x 0 10f\n" +
		"C2 y 0 10f\n"
	nl, err := netlist.ParseString(deck)
	if err != nil {
		b.Fatal(err)
	}
	f, err := nl.Flatten()
	if err != nil {
		b.Fatal(err)
	}
	e, err := Compile(f, tech07())
	if err != nil {
		b.Fatal(err)
	}
	benchOP(b, e, nil)
}
