package core

import (
	"math/rand"
	"testing"

	"mtcmos/internal/circuit"
	"mtcmos/internal/circuits"
)

var benchSink *Result

type benchRun struct {
	stim circuit.Stimulus
	wl   float64
}

// BenchmarkCompiledRun times one switch-level run on the two circuits
// of the vbs_sweep workload: the paper's 3-bit adder, cycling through
// its 4,096 ordered pairs at W/L {0, 5, 10, 20}, and the 8x8
// multiplier on seeded random pairs at W/L 170. Run it with
//
//	go test -run '^$' -bench CompiledRun -benchmem ./internal/core
func BenchmarkCompiledRun(b *testing.B) {
	ad := circuits.PaperAdder(3)
	var adRuns []benchRun
	for p := 0; p < 4096; p++ {
		o, n := uint64(p>>6), uint64(p&63)
		st := ad.Pair(o&7, o>>3, n&7, n>>3).Stimulus()
		for _, wl := range []float64{0, 5, 10, 20} {
			adRuns = append(adRuns, benchRun{st, wl})
		}
	}
	m := circuits.PaperMultiplier(8)
	rng := rand.New(rand.NewSource(1))
	var mRuns []benchRun
	for i := 0; i < 256; i++ {
		ox, oy, nx, ny := rng.Uint64()&255, rng.Uint64()&255, rng.Uint64()&255, rng.Uint64()&255
		mRuns = append(mRuns, benchRun{m.Pair(ox, oy, nx, ny).Stimulus(), 170})
	}
	for _, bc := range []struct {
		name string
		c    *circuit.Circuit
		runs []benchRun
	}{
		{"adder", ad.Circuit, adRuns},
		{"mult8", m.Circuit, mRuns},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cp, err := Compile(bc.c)
			if err != nil {
				b.Fatal(err)
			}
			events := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := bc.runs[i%len(bc.runs)]
				res, err := cp.RunWL(r.wl, r.stim, Options{})
				if err != nil {
					b.Fatal(err)
				}
				events += res.Events
				benchSink = res
			}
			b.ReportMetric(float64(events)/float64(b.N), "events/op")
		})
	}
}
