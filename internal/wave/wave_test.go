package wave

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewPWLValidation(t *testing.T) {
	if _, err := NewPWL(); err == nil {
		t.Error("empty PWL must error")
	}
	if _, err := NewPWL(0, 1, 2); err == nil {
		t.Error("odd argument count must error")
	}
	if _, err := NewPWL(0, 1, 0, 2); err == nil {
		t.Error("non-increasing time must error")
	}
	if _, err := NewPWL(1, 0, 0.5, 1); err == nil {
		t.Error("decreasing time must error")
	}
}

func TestPWLAt(t *testing.T) {
	p, err := NewPWL(1, 0, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ at, want float64 }{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {5, 2},
	}
	for _, c := range cases {
		if got := p.At(c.at); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("At(%g) = %g, want %g", c.at, got, c.want)
		}
	}
}

func TestStepAndDC(t *testing.T) {
	s := Step(1e-9, 50e-12, 0, 1.2)
	if s.At(0) != 0 || s.At(2e-9) != 1.2 {
		t.Error("Step endpoints wrong")
	}
	mid := s.At(1e-9 + 25e-12)
	if math.Abs(mid-0.6) > 1e-9 {
		t.Errorf("Step midpoint = %g", mid)
	}
	d := DC(0.7)
	if d.At(-1) != 0.7 || d.At(1e9) != 0.7 {
		t.Error("DC must be constant")
	}
	// Zero transition time must not panic and must still be a valid PWL.
	z := Step(0, 0, 1, 0)
	if z.At(1) != 0 {
		t.Error("zero-transition Step wrong")
	}
}

func TestPWLCrossing(t *testing.T) {
	p, _ := NewPWL(0, 0, 1, 1, 2, 0)
	tc, ok := p.Crossing(0.5, 0, +1)
	if !ok || math.Abs(tc-0.5) > 1e-12 {
		t.Errorf("rising crossing = %g, %v", tc, ok)
	}
	tc, ok = p.Crossing(0.5, 0, -1)
	if !ok || math.Abs(tc-1.5) > 1e-12 {
		t.Errorf("falling crossing = %g, %v", tc, ok)
	}
	tc, ok = p.Crossing(0.5, 0.7, 0)
	if !ok || math.Abs(tc-1.5) > 1e-12 {
		t.Errorf("any-direction from 0.7 = %g, %v", tc, ok)
	}
	if _, ok = p.Crossing(2.0, 0, +1); ok {
		t.Error("no crossing of 2.0 exists")
	}
}

func TestPWLAppendColinearMerge(t *testing.T) {
	p := &PWL{}
	p.Append(0, 0)
	p.Append(1, 1)
	p.Append(2, 2) // colinear with previous segment: merged
	p.Append(3, 0)
	if len(p.T) != 3 {
		t.Fatalf("expected 3 breakpoints after merge, got %d: %v", len(p.T), p.T)
	}
	if p.At(1.5) != 1.5 {
		t.Error("merge changed the waveform")
	}
	p.Append(3, 5) // same-time replace
	if p.Final() != 5 {
		t.Error("same-time Append must replace")
	}
	defer func() {
		if recover() == nil {
			t.Error("backwards Append must panic")
		}
	}()
	p.Append(2.5, 0)
}

func TestTraceBasics(t *testing.T) {
	tr := &Trace{Name: "out"}
	tr.Append(0, 1.2)
	tr.Append(1e-9, 1.2)
	tr.Append(2e-9, 0)
	if math.Abs(tr.At(1.5e-9)-0.6) > 1e-12 {
		t.Errorf("At = %g", tr.At(1.5e-9))
	}
	tc, ok := tr.LastCrossing(0.6, 0.5e-9)
	if !ok || math.Abs(tc-1.5e-9) > 1e-15 {
		t.Errorf("LastCrossing = %g, %v", tc, ok)
	}
	if tr.Final() != 0 {
		t.Error("Final wrong")
	}
	v, tp := tr.Peak(0, 2e-9)
	if v != 1.2 || tp != 0 {
		t.Errorf("Peak = %g at %g", v, tp)
	}
}

// TestTraceLastCrossing: a glitching output settles at its last
// crossing; the first crossing is only the glitch.
func TestTraceLastCrossing(t *testing.T) {
	tr := &Trace{}
	for _, s := range [][2]float64{{0, 0}, {1, 1}, {2, 0}, {3, 0}, {4, 1}, {5, 1}} {
		tr.Append(s[0], s[1])
	}
	first, _ := tr.Crossing(0.5, 0, 0)
	last, ok := tr.LastCrossing(0.5, 0)
	if first != 0.5 || !ok || last != 3.5 {
		t.Errorf("first %g, last %g (%v); want 0.5, 3.5", first, last, ok)
	}
	if _, ok := tr.LastCrossing(0.5, 3.6); ok {
		t.Error("no crossing after 3.6")
	}
	if tc, ok := tr.LastCrossing(0.5, 1.7); !ok || tc != 3.5 {
		t.Errorf("LastCrossing from 1.7 = %g, %v", tc, ok)
	}
}

// Property: At() is within the min/max of neighbouring breakpoints and
// crossings found are real crossings.
func TestPWLProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := &PWL{}
		tt := 0.0
		for i := 0; i < 20; i++ {
			tt += 0.01 + rng.Float64()
			p.Append(tt, rng.Float64()*2-1)
		}
		// Interpolation bounds.
		for i := 1; i < len(p.T); i++ {
			mid := 0.5 * (p.T[i-1] + p.T[i])
			v := p.At(mid)
			lo := math.Min(p.V[i-1], p.V[i])
			hi := math.Max(p.V[i-1], p.V[i])
			if v < lo-1e-9 || v > hi+1e-9 {
				return false
			}
		}
		// Any reported crossing evaluates to the level.
		if tc, ok := p.Crossing(0, p.T[0], 0); ok {
			if math.Abs(p.At(tc)) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestTraceAppendBackwardsPanics(t *testing.T) {
	tr := &Trace{}
	tr.Append(1, 0)
	defer func() {
		if recover() == nil {
			t.Error("backwards Trace.Append must panic")
		}
	}()
	tr.Append(0.5, 0)
}

func TestEmptyWaveforms(t *testing.T) {
	var p PWL
	if p.At(1) != 0 || p.Final() != 0 || p.End() != 0 {
		t.Error("empty PWL accessors must be zero")
	}
	var tr Trace
	if tr.At(1) != 0 || tr.Final() != 0 {
		t.Error("empty Trace accessors must be zero")
	}
	if _, ok := tr.LastCrossing(0, 0); ok {
		t.Error("empty trace cannot cross")
	}
}

func TestWriteCSV(t *testing.T) {
	tr := &Trace{Name: "out"}
	tr.Append(0, 1.2)
	tr.Append(1e-9, 0)
	var b strings.Builder
	if err := tr.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	want := "t,out\n0,1.2\n1e-09,0\n"
	if b.String() != want {
		t.Errorf("trace CSV = %q, want %q", b.String(), want)
	}
	p, _ := NewPWL(0, 0, 1e-9, 1.2)
	b.Reset()
	if err := p.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(b.String(), "t,v\n0,0\n") {
		t.Errorf("pwl CSV = %q", b.String())
	}
}
