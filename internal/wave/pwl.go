package wave

import (
	"fmt"
	"io"
	"math"
)

// PWL is a piecewise-linear waveform: value V[i] at time T[i], linear in
// between, held constant before T[0] and after T[len-1]. Times are
// strictly increasing.
type PWL struct {
	T []float64
	V []float64
}

// NewPWL builds a PWL from interleaved (t, v) pairs and validates
// monotone time.
func NewPWL(pairs ...float64) (*PWL, error) {
	if len(pairs) == 0 || len(pairs)%2 != 0 {
		return nil, fmt.Errorf("wave: NewPWL needs an even, nonzero number of values, got %d", len(pairs))
	}
	p := &PWL{}
	for i := 0; i < len(pairs); i += 2 {
		t, v := pairs[i], pairs[i+1]
		if len(p.T) > 0 && t <= p.T[len(p.T)-1] {
			return nil, fmt.Errorf("wave: NewPWL times must be strictly increasing (t[%d]=%g after %g)", i/2, t, p.T[len(p.T)-1])
		}
		p.T = append(p.T, t)
		p.V = append(p.V, v)
	}
	return p, nil
}

// Step returns a rising or falling edge from v0 to v1 starting at t0
// with the given (positive) transition time.
func Step(t0, trans, v0, v1 float64) *PWL {
	if trans <= 0 {
		trans = 1e-15
	}
	if t0 <= 0 {
		// Keep a point before the edge so At() holds v0 beforehand.
		t0 = 0
	}
	p, err := NewPWL(t0, v0, t0+trans, v1)
	if err != nil {
		panic("wave: Step: " + err.Error())
	}
	return p
}

// DC returns a constant waveform.
func DC(v float64) *PWL {
	return &PWL{T: []float64{0}, V: []float64{v}}
}

// At evaluates the waveform at time t.
func (p *PWL) At(t float64) float64 { return at(p.T, p.V, t) }

// Crossing returns the first time at or after from where the waveform
// crosses level in the given direction (+1 rising, -1 falling, 0 any).
// ok is false when no crossing exists.
func (p *PWL) Crossing(level, from float64, dir int) (t float64, ok bool) {
	return crossing(p.T, p.V, level, from, dir)
}

// Final returns the last value of the waveform.
func (p *PWL) Final() float64 { return final(p.V) }

// End returns the last breakpoint time.
func (p *PWL) End() float64 { return final(p.T) }

// Append adds a point, merging exactly-colinear runs to keep waveforms
// compact. Time must not move backwards; equal time replaces the value.
func (p *PWL) Append(t, v float64) {
	n := len(p.T)
	if n > 0 {
		last := p.T[n-1]
		if t < last {
			panic(fmt.Sprintf("wave: Append time %g before %g", t, last))
		}
		if t == last {
			p.V[n-1] = v
			return
		}
		if n >= 2 {
			// Drop the middle point of three colinear samples.
			t0, v0 := p.T[n-2], p.V[n-2]
			t1, v1 := p.T[n-1], p.V[n-1]
			s1 := (v1 - v0) / (t1 - t0)
			s2 := (v - v1) / (t - t1)
			if math.Abs(s1-s2) <= 1e-9*math.Max(math.Abs(s1), math.Abs(s2))+1e-18 {
				p.T[n-1] = t
				p.V[n-1] = v
				return
			}
		}
	}
	p.T = append(p.T, t)
	p.V = append(p.V, v)
}

// WriteCSV writes the waveform's breakpoints as "t,v" rows.
func (p *PWL) WriteCSV(w io.Writer) error { return writeCSV(w, "v", p.T, p.V) }
