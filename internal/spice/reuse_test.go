package spice

import (
	"fmt"
	"sync"
	"testing"

	"mtcmos/internal/circuit"
	"mtcmos/internal/circuits"
	"mtcmos/internal/netlist"
)

// invDeck builds the flattened deck of a sleep-gated inverter chain
// with a stepped input, the standard workload for reuse tests.
func invDeck(t testing.TB, n int) (*netlist.Flat, Options) {
	c := circuits.InverterChain(tech07(), n, 50e-15)
	c.SleepWL = 10
	stim := circuit.Stimulus{
		Old:   map[string]bool{"in": false},
		New:   map[string]bool{"in": true},
		TEdge: 0.5e-9, TRise: 50e-12,
	}
	nl, err := c.Netlist(stim)
	if err != nil {
		t.Fatal(err)
	}
	f, err := nl.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	return f, Options{TStop: 3e-9, Record: []string{"out", circuit.NodeVGnd}}
}

// traceKey summarizes a run for exact comparison across reuses.
func traceKey(r *Result) string {
	tr := r.Trace("out")
	return fmt.Sprintf("steps=%d iterations=%d evals=%d final=%.17g len=%d",
		r.Steps, r.Iterations, r.Evals, tr.Final(), tr.Len())
}

// TestEngineRunReuse proves a compiled engine gives bit-identical
// results run after run (the pooled state carries nothing over).
func TestEngineRunReuse(t *testing.T) {
	f, o := invDeck(t, 3)
	e, err := Compile(f, tech07())
	if err != nil {
		t.Fatal(err)
	}
	first, err := e.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	want := traceKey(first)
	for i := 0; i < 3; i++ {
		r, err := e.Run(o)
		if err != nil {
			t.Fatal(err)
		}
		if got := traceKey(r); got != want {
			t.Fatalf("reuse %d diverged: %s != %s", i, got, want)
		}
	}
	// A fresh compile must agree too.
	e2, err := Compile(f, tech07())
	if err != nil {
		t.Fatal(err)
	}
	r, err := e2.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if got := traceKey(r); got != want {
		t.Fatalf("fresh engine diverged: %s != %s", got, want)
	}
}

// TestEngineConcurrentRuns drives one engine from many goroutines
// under -race; every run must match the serial reference exactly.
func TestEngineConcurrentRuns(t *testing.T) {
	f, o := invDeck(t, 3)
	e, err := Compile(f, tech07())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := e.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	want := traceKey(ref)
	const G = 8
	var wg sync.WaitGroup
	errs := make([]error, G)
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 3; k++ {
				r, err := e.Run(o)
				if err != nil {
					errs[g] = err
					return
				}
				if got := traceKey(r); got != want {
					errs[g] = fmt.Errorf("goroutine %d run %d: %s != %s", g, k, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestOperatingPointConcurrentWithRun exercises the OP solver and the
// transient loop on the same engine simultaneously (Standby does this
// sequentially; the parallel facade may overlap them).
func TestOperatingPointConcurrentWithRun(t *testing.T) {
	f, o := invDeck(t, 2)
	e, err := Compile(f, tech07())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%2 == 0 {
				_, errs[g] = e.Run(o)
				return
			}
			_, errs[g] = e.OperatingPoint(nil, 0)
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// BenchmarkEngineRunReuse measures the steady-state cost of a run on a
// reused engine; compare allocs/op against BenchmarkEngineRunFresh to
// see the compile-once + pooled-state savings.
func BenchmarkEngineRunReuse(b *testing.B) {
	f, o := invDeck(b, 3)
	e, err := Compile(f, tech07())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineRunFresh is the recompile-every-run baseline.
func BenchmarkEngineRunFresh(b *testing.B) {
	f, o := invDeck(b, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(f, tech07(), o); err != nil {
			b.Fatal(err)
		}
	}
}
