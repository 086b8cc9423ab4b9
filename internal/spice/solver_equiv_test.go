package spice

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"mtcmos/internal/circuit"
	"mtcmos/internal/circuits"
	"mtcmos/internal/netlist"
)

// checkKCL solves the DC operating point and requires Kirchhoff's
// current law to hold at every free node, summed independently of the
// stamp pass through deviceCurrentInto.
func checkKCL(t *testing.T, e *Engine, seed map[string]float64) {
	t.Helper()
	v, st, err := e.OperatingPointStats(seed, 0)
	if err != nil {
		t.Fatalf("operating point: %v", err)
	}
	if st.Iterations == 0 || st.Evals == 0 {
		t.Fatalf("stats empty: %+v", st)
	}
	for _, i := range e.free {
		if r := e.deviceCurrentInto(i, v, nil); !(math.Abs(r) <= 1e-12) {
			t.Errorf("node %s: KCL residual %g A", e.names[i], r)
		}
	}
}

// TestOperatingPointSparseMatchesDenseDecks runs the KCL check on every
// deck shipped under examples/decks.
func TestOperatingPointSparseMatchesDenseDecks(t *testing.T) {
	decks, err := filepath.Glob("../../examples/decks/*.sp")
	if err != nil || len(decks) == 0 {
		t.Fatalf("no example decks found: %v", err)
	}
	for _, path := range decks {
		t.Run(filepath.Base(path), func(t *testing.T) {
			text, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			nl, err := netlist.ParseString(string(text))
			if err != nil {
				t.Fatal(err)
			}
			f, err := nl.Flatten()
			if err != nil {
				t.Fatal(err)
			}
			e, err := Compile(f, tech07())
			if err != nil {
				t.Fatal(err)
			}
			checkKCL(t, e, nil)
		})
	}
}

// TestOperatingPointSparseMatchesDenseRandom sweeps randomized MTCMOS
// circuits: generated adder blocks of random width, sleep sizing and
// input vector, plus randomized variants of the mixed-element stamp
// deck. Convergence-safe by construction (real logic topologies), yet
// random enough to walk the stamp code through every element kind and
// operating region.
func TestOperatingPointSparseMatchesDenseRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 6; trial++ {
		bits := 1 + rng.Intn(3)
		ad := circuits.RippleCarryAdder(tech07(), bits, (5+20*rng.Float64())*1e-15)
		ad.SleepWL = 4 + 30*rng.Float64()
		max := uint64(1)<<uint(bits) - 1
		inputs := ad.Inputs(rng.Uint64()&max, rng.Uint64()&max, rng.Intn(2) == 0)
		nl, err := ad.Circuit.Netlist(circuit.Stimulus{Old: inputs, New: inputs})
		if err != nil {
			t.Fatal(err)
		}
		f, err := nl.Flatten()
		if err != nil {
			t.Fatal(err)
		}
		e, err := Compile(f, ad.Tech)
		if err != nil {
			t.Fatal(err)
		}
		seed := map[string]float64{}
		for _, name := range e.names {
			if rng.Intn(2) == 0 {
				seed[name] = rng.Float64() * ad.Tech.Vdd
			}
		}
		checkKCL(t, e, seed)
	}
}
