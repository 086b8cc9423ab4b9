// Package faultinject seeds deterministic failures into the reference
// transient engine's device evaluations: NaN currents, current spikes,
// and per-iteration jitter that keeps Newton iterations from ever
// settling ("stuck iterations"). It exists to prove the resilience
// machinery in internal/spice actually works — that every rung of the
// convergence-recovery ladder fires in order and rescues the step it
// is designed to rescue, that the NaN guards fail fast with the
// offending node named, and that budget and cancellation paths return
// partial results — so future engine changes cannot silently regress
// those guarantees.
//
// An Injector is wired into a run through spice.Options.Intercept:
//
//	inj := faultinject.New(faultinject.Fault{
//		Kind: faultinject.Stuck, Start: 1e-9, End: 2e-9,
//		ClearAtRung: spice.RungGmin,
//	})
//	res, err := spice.Simulate(flat, tech, spice.Options{
//		TStop: 5e-9, Intercept: inj.Intercept,
//	})
//
// Faults are scheduled by simulated time, may target a single device
// by name, may expire after a number of evaluations, and may clear
// once the engine escalates to a given recovery rung — which is how a
// test asserts "this failure is rescued by exactly that rung": every
// rung below it keeps failing, the target rung sees a clean circuit
// and converges.
//
// An Injector's perturbation counters are atomic, so one injector may
// be shared by concurrent runs on the parallel sweep executor
// (internal/sched); Hits then reports totals across all of them. Count
// caps are likewise enforced atomically across runs.
package faultinject

import (
	"math"
	"sync/atomic"

	"mtcmos/internal/spice"
)

// Kind selects the disturbance a Fault applies.
type Kind int

const (
	// NaN replaces the device current with NaN, poisoning the node
	// update (the engine's numerical guard must catch it).
	NaN Kind = iota
	// Spike multiplies the device current by Magnitude.
	Spike
	// Stuck adds ±Magnitude to the current, alternating sign on every
	// Newton iteration: the bias shifts only the residual (the
	// Jacobian is analytic, so the solver stays well-posed) but flips
	// between iterations, so the update never settles below the
	// convergence tolerance.
	Stuck
)

func (k Kind) String() string {
	switch k {
	case NaN:
		return "nan"
	case Spike:
		return "spike"
	case Stuck:
		return "stuck"
	default:
		return "unknown"
	}
}

// Fault schedules one disturbance of the device-evaluation stream.
type Fault struct {
	Kind Kind
	// Device targets one device by flattened netlist name; empty
	// targets every device.
	Device string
	// Start and End bound the active window in simulated time; End 0
	// means open-ended.
	Start, End float64
	// Magnitude is the spike multiplier (Spike) or the jitter current
	// amplitude in amperes (Stuck; default 1e-3 A).
	Magnitude float64
	// Count caps how many evaluations the fault perturbs (0 =
	// unlimited).
	Count int
	// ClearAtRung makes the fault inert once the engine has escalated
	// to the given recovery rung or beyond (RungNone = never clears).
	// This is the lever for proving a specific rung rescues the step.
	ClearAtRung spice.Rung
}

// Injector applies a set of scheduled faults; wire Intercept into
// spice.Options.Intercept. Safe for concurrent use by multiple runs.
type Injector struct {
	faults []Fault
	hits   []atomic.Int64
}

// New builds an injector over the given faults.
func New(faults ...Fault) *Injector {
	return &Injector{faults: faults, hits: make([]atomic.Int64, len(faults))}
}

// Intercept implements spice.Intercept: it applies every active fault
// to the evaluated current, in order.
func (in *Injector) Intercept(info spice.EvalInfo, ids float64) float64 {
	for fi := range in.faults {
		f := &in.faults[fi]
		if f.Device != "" && f.Device != info.Device {
			continue
		}
		if info.T < f.Start || (f.End > 0 && info.T > f.End) {
			continue
		}
		if f.ClearAtRung != spice.RungNone && info.Rung >= f.ClearAtRung {
			continue
		}
		if n := in.hits[fi].Add(1); f.Count > 0 && n > int64(f.Count) {
			// Over the cap: undo the reservation so Hits stays exact
			// even when concurrent runs race past the limit.
			in.hits[fi].Add(-1)
			continue
		}
		switch f.Kind {
		case NaN:
			ids = math.NaN()
		case Spike:
			ids *= f.Magnitude
		case Stuck:
			mag := f.Magnitude
			if mag == 0 {
				mag = 1e-3
			}
			if info.Sweep%2 == 0 {
				ids += mag
			} else {
				ids -= mag
			}
		}
	}
	return ids
}

// Hits reports how many evaluations fault i has perturbed (summed
// across every run sharing this injector).
func (in *Injector) Hits(i int) int { return int(in.hits[i].Load()) }

// Reset zeroes the perturbation counters so the injector can drive a
// fresh run. Do not call while runs are in flight.
func (in *Injector) Reset() {
	for i := range in.hits {
		in.hits[i].Store(0)
	}
}
