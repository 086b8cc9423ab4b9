package wave

import (
	"fmt"
	"io"
	"math"
)

// Trace is a sampled waveform from the transient engine: value V[i] at
// time T[i], nondecreasing times, linear interpolation between samples.
type Trace struct {
	Name string
	T    []float64
	V    []float64
}

// Append adds a sample.
func (tr *Trace) Append(t, v float64) {
	if n := len(tr.T); n > 0 && t < tr.T[n-1] {
		panic(fmt.Sprintf("wave: Trace.Append time %g before %g", t, tr.T[n-1]))
	}
	tr.T = append(tr.T, t)
	tr.V = append(tr.V, v)
}

// Len returns the number of samples.
func (tr *Trace) Len() int { return len(tr.T) }

// At evaluates the trace at time t by linear interpolation, holding the
// end values outside the sampled range.
func (tr *Trace) At(t float64) float64 { return at(tr.T, tr.V, t) }

// Crossing returns the first time at or after from where the trace
// crosses level in direction dir (+1 rising, -1 falling, 0 either).
func (tr *Trace) Crossing(level, from float64, dir int) (float64, bool) {
	return crossing(tr.T, tr.V, level, from, dir)
}

// LastCrossing returns the last time at or after from where the trace
// crosses level in either direction. With level Vdd/2 and from the
// input edge, this is the settling delay both engines report: a
// glitching output counts from its last crossing, not its first.
func (tr *Trace) LastCrossing(level, from float64) (float64, bool) {
	return lastCrossing(tr.T, tr.V, level, from)
}

// Final returns the last sample value.
func (tr *Trace) Final() float64 { return final(tr.V) }

// Peak returns the maximum value and its time on [t0, t1].
func (tr *Trace) Peak(t0, t1 float64) (v, t float64) {
	v = math.Inf(-1)
	for i := range tr.T {
		if tr.T[i] < t0 || tr.T[i] > t1 {
			continue
		}
		if tr.V[i] > v {
			v, t = tr.V[i], tr.T[i]
		}
	}
	if math.IsInf(v, -1) {
		// No samples inside the window; fall back to endpoints.
		va, vb := tr.At(t0), tr.At(t1)
		if va >= vb {
			return va, t0
		}
		return vb, t1
	}
	return v, t
}

// WriteCSV writes the trace as "t,v" rows with a header naming the
// trace. Useful for external plotting of engine outputs.
func (tr *Trace) WriteCSV(w io.Writer) error {
	name := tr.Name
	if name == "" {
		name = "v"
	}
	return writeCSV(w, name, tr.T, tr.V)
}
