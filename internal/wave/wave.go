// Package wave holds the toolkit's two waveform types: PWL (switch-level
// outputs and voltage sources) and Trace (reference-engine samples).
// Both are a voltage piecewise linear in time, so each measurement —
// evaluation, threshold crossings, the last crossing that both engines
// report as the settling delay, the final value, CSV export — is
// written once over the (T, V) slices and each method is a one-line call.
package wave

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// at evaluates the waveform at time x by linear interpolation, holding
// the end values outside the sampled range and returning a sample's
// own value at its exact time.
func at(t, v []float64, x float64) float64 {
	n := len(t)
	if n == 0 {
		return 0
	}
	if x <= t[0] {
		return v[0]
	}
	if x >= t[n-1] {
		return v[n-1]
	}
	i := sort.SearchFloat64s(t, x) // t[i-1] < x <= t[i]
	if t[i] == x {
		return v[i]
	}
	return v[i-1] + (v[i]-v[i-1])*(x-t[i-1])/(t[i]-t[i-1])
}

// segCrossing returns where segment i (samples i-1 and i) crosses
// level in direction dir (+1 rising, -1 falling, 0 either).
func segCrossing(t, v []float64, i int, level float64, dir int) (float64, bool) {
	v0, v1 := v[i-1], v[i]
	if v0 == v1 || dir > 0 && v1 < v0 || dir < 0 && v1 > v0 ||
		level < math.Min(v0, v1) || level > math.Max(v0, v1) {
		return 0, false
	}
	return t[i-1] + (t[i]-t[i-1])*(level-v0)/(v1-v0), true
}

// crossing returns the first time at or after from where the waveform
// crosses level in direction dir.
func crossing(t, v []float64, level, from float64, dir int) (float64, bool) {
	for i := 1; i < len(t); i++ {
		if t[i] < from {
			continue
		}
		if tc, ok := segCrossing(t, v, i, level, dir); ok && tc >= from {
			return tc, true
		}
	}
	return 0, false
}

// lastCrossing returns the last time at or after from where the
// waveform crosses level in either direction.
func lastCrossing(t, v []float64, level, from float64) (float64, bool) {
	for i := len(t) - 1; i >= 1 && t[i] >= from; i-- {
		if tc, ok := segCrossing(t, v, i, level, 0); ok && tc >= from {
			return tc, true
		}
	}
	return 0, false
}

// final returns the last value, or 0 for an empty waveform.
func final(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return v[len(v)-1]
}

// writeCSV writes a "t,<column>" header and one "t,v" row per sample.
func writeCSV(w io.Writer, column string, t, v []float64) error {
	if _, err := fmt.Fprintf(w, "t,%s\n", column); err != nil {
		return err
	}
	for i := range t {
		if _, err := fmt.Fprintf(w, "%.12g,%.12g\n", t[i], v[i]); err != nil {
			return err
		}
	}
	return nil
}
