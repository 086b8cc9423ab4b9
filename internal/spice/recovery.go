package spice

import (
	"math"

	"mtcmos/internal/simerr"
)

// Rung identifies a level of the convergence-recovery ladder. The
// engine climbs the ladder in order when a timestep fails to converge:
// plain retries at smaller dt (back-off), damped Newton (damping),
// conductance homotopy (Gmin stepping), and finally source ramping. Device-evaluation hooks receive the active rung, which is
// how the fault-injection harness proves each rung fires.
type Rung int

const (
	// RungNone is the normal stepping path (no recovery active).
	RungNone Rung = iota
	// RungBackoff retries the step at successively halved timesteps.
	RungBackoff
	// RungDamping damps the Newton updates (omega < 1).
	RungDamping
	// RungGmin solves a sequence of problems with a shrinking shunt
	// conductance to ground on every free node, re-seeding each solve
	// from the previous one, ending at the physical gmin = 0.
	RungGmin
	// RungSourceRamp applies the step's source change in fractions,
	// carrying the solution forward between fractions.
	RungSourceRamp
)

func (r Rung) String() string {
	switch r {
	case RungNone:
		return "none"
	case RungBackoff:
		return "backoff"
	case RungDamping:
		return "damping"
	case RungGmin:
		return "gmin"
	case RungSourceRamp:
		return "source-ramp"
	default:
		return "unknown"
	}
}

// Recovery configures the convergence-recovery ladder. The zero value
// enables every rung at the fixed strengths below.
type Recovery struct {
	// Disable restores the historical behavior: fail with
	// ErrNoConvergence as soon as timestep back-off reaches DTMin.
	Disable bool
}

// dampingLevels is how many damped-Newton retries rung 2 attempts
// (omega = 1/2, 1/4, ...).
const dampingLevels = 2

// gminLadder is rung 3's conductance-stepping schedule in siemens,
// largest first; a final gmin = 0 solve is always appended.
var gminLadder = []float64{1e-3, 1e-6, 1e-9, 1e-12}

// sourceRampSteps is how many fractions rung 4 splits the source
// change into.
const sourceRampSteps = 4

// RecoveryStats counts ladder activity over a run.
type RecoveryStats struct {
	Backoffs    int // timestep halvings after a failed attempt
	Dampings    int // steps rescued by damped Newton
	GminSteps   int // steps rescued by conductance stepping
	SourceRamps int // steps rescued by source ramping
	Rescued     int // total steps accepted above the back-off rung
}

// EvalInfo describes one device evaluation to an Intercept hook.
type EvalInfo struct {
	Device string  // netlist device name
	T      float64 // target time of the step being solved
	Dt     float64 // timestep being attempted
	Sweep  int     // Newton iteration index within the attempt
	Rung   Rung    // active recovery rung (RungNone on the normal path)
}

// Intercept observes and may replace every MOS drain-source current the
// engine computes; internal/faultinject builds these hooks to seed
// NaNs, current spikes and stuck iterations on schedule.
type Intercept func(info EvalInfo, ids float64) float64

// runState is the mutable transient-loop state shared by the stepping
// and recovery code. One runState belongs to exactly one Run call;
// the solver vectors are recycled through the engine's pool, while
// everything that escapes to the caller (the Result) is run-fresh.
type runState struct {
	// v holds the node voltages at t and vtrial those of the step being
	// solved; vprev holds them at the accepted point dtPrev before t.
	// dtPrev is 0 while there is no history to extrapolate from or
	// estimate error with: at the start, after a source corner and
	// after a rescued step.
	v, vprev, vtrial []float64
	t, dt, dtPrev    float64
	// errCtl enables local-truncation-error step control and the
	// predictor. A run that records no waveform needs only its end
	// state: it keeps no history, so it runs without either.
	errCtl bool
	res    *Result
	record func(t float64, force bool)

	// Device-evaluation interception (fault injection) for this run.
	icept Intercept
	einfo EvalInfo

	// Sparse Newton workspace (stamp.go), owned for the runState's
	// lifetime and recycled with it.
	w *spWork
}

// attempt parameterizes one candidate solve of a single timestep.
type attempt struct {
	dt       float64
	omega    float64 // Newton damping factor (1 = undamped)
	gmin     float64 // shunt conductance to ground on free nodes
	lambda   float64 // fraction of the source move toward t+dt applied
	maxIter  int     // Newton iteration cap
	rung     Rung
	keepSeed bool // keep vtrial from the previous attempt as the seed
}

// sweepOut reports one step-solve attempt.
type sweepOut struct {
	converged bool
	sweeps    int   // Newton iterations spent
	worst     int32 // node with the largest final update (diagnostics)
	nan       bool  // a NaN/Inf voltage appeared at node worst
}

// stepError builds a classified failure carrying the partial-run
// diagnostics.
func (e *Engine) stepError(kind error, st *runState, node int32, t, dt float64, msg string) *simerr.Error {
	name := ""
	if node >= 0 {
		name = e.names[node]
	}
	return &simerr.Error{
		Kind: kind, Op: "spice", Node: name, T: t, Dt: dt,
		Sweeps: st.res.Sweeps, Steps: st.res.Steps, Msg: msg,
	}
}

// checkBudgets enforces the context and the step budget; called
// between step attempts so overshoot is at most one attempt.
func (e *Engine) checkBudgets(o *Options, st *runState) error {
	if err := simerr.FromContext(o.Ctx, "spice"); err != nil {
		return e.stepError(err.Kind, st, -1, st.t, st.dt, err.Msg)
	}
	if o.MaxSteps > 0 && st.res.Steps >= o.MaxSteps {
		return e.stepError(simerr.ErrBudget, st, -1, st.t, st.dt, "step budget exhausted")
	}
	return nil
}

// attemptStep seeds vtrial, applies the (possibly ramped) source
// values for t+dt, and runs the Newton step solver. On the normal path
// the seed extrapolates the last two accepted points; the recovery
// rungs start from v.
func (e *Engine) attemptStep(st *runState, a attempt) sweepOut {
	switch {
	case a.keepSeed:
	case a.rung == RungNone && st.dtPrev > 0:
		r := a.dt / st.dtPrev
		for i, x := range st.v {
			st.vtrial[i] = x + r*(x-st.vprev[i])
		}
	default:
		copy(st.vtrial, st.v)
	}
	tNew := st.t + a.dt
	for _, s := range e.srcs {
		if s.node == groundIdx {
			continue
		}
		target := s.v.At(tNew)
		if a.lambda < 1 {
			from := s.v.At(st.t)
			target = from + a.lambda*(target-from)
		}
		st.vtrial[s.node] = target
	}
	st.einfo = EvalInfo{T: tNew, Dt: a.dt, Rung: a.rung}
	return e.solveNewton(st, a)
}

// errRatio is the converged step's largest local-truncation-error
// estimate as a multiple of its tolerance. Backward Euler's error is
// dt²/2 times the node voltage's second derivative, which the divided
// differences of the last three accepted points (vprev, v and the
// solved vtrial) estimate. A node without capacitance carries no state
// and is skipped. The ratio is 0 when the history does not reach back
// a step.
func (e *Engine) errRatio(st *runState, dt float64) float64 {
	if st.dtPrev == 0 {
		return 0
	}
	ratio := 0.0
	for _, i := range e.capNodes {
		v0, v1, v2 := st.vprev[i], st.v[i], st.vtrial[i]
		dd2 := ((v2-v1)/dt - (v1-v0)/st.dtPrev) / (dt + st.dtPrev)
		tol := lteRelTol*math.Max(math.Abs(v1), math.Abs(v2)) + lteAbsTol
		ratio = math.Max(ratio, dt*dt*math.Abs(dd2)/tol)
	}
	return ratio
}

// advance takes one timestep of at most dtTry from st.t, climbing the
// convergence-recovery ladder on failure: timestep back-off, then
// damped Newton, then Gmin conductance stepping, then source ramping.
// A converged step whose error estimate is too large is retried
// smaller; that is step control, not recovery. On success the state
// and result are updated; otherwise a typed *simerr.Error is returned
// and the partial result stays valid.
func (e *Engine) advance(o *Options, st *runState, dtTry float64) error {
	accept := func(a attempt, sweeps int, ratio float64, rescued bool) {
		copy(st.vprev, st.v)
		copy(st.v, st.vtrial)
		st.t += a.dt
		st.res.Steps++
		st.record(st.t, st.t >= o.TStop)
		if rescued {
			st.res.Recovery.Rescued++
			// Restart cautiously from the rescued step's size.
			st.dt, st.dtPrev = math.Max(a.dt, o.DTMin), 0
			return
		}
		if st.errCtl {
			st.dtPrev = a.dt
		}
		// Ratio 0 (no estimate) doubles the step; error control alone
		// shrinks it no further than dtFloor.
		next := math.Max(a.dt*math.Min(2, 0.9/math.Sqrt(ratio)), math.Min(a.dt, dtFloor))
		if sweeps > 20 {
			next = math.Max(a.dt/2, o.DTMin)
		}
		st.dt = math.Min(next, o.DTMax)
	}

	// Rung 1: plain attempts with timestep back-off.
	var last sweepOut
	rung := RungNone
	for {
		if err := e.checkBudgets(o, st); err != nil {
			return err
		}
		a := attempt{dt: dtTry, omega: 1, lambda: 1, maxIter: maxIters, rung: rung}
		out := e.attemptStep(st, a)
		st.res.Sweeps += out.sweeps
		if out.nan {
			return e.stepError(simerr.ErrNumerical, st, out.worst, st.t+a.dt, a.dt, "NaN/Inf voltage")
		}
		if out.converged {
			ratio := e.errRatio(st, a.dt)
			if ratio > lteReject && a.dt > dtFloor {
				dtTry = math.Max(a.dt*0.9/math.Sqrt(ratio), dtFloor)
				continue
			}
			accept(a, out.sweeps, ratio, false)
			return nil
		}
		last = out
		dtTry /= 2
		rung = RungBackoff
		st.res.Recovery.Backoffs++
		if dtTry < o.DTMin {
			break
		}
		st.dt = dtTry
	}
	dtd := math.Max(dtTry*2, o.DTMin)
	if o.Recovery.Disable {
		return e.stepError(simerr.ErrNoConvergence, st, last.worst, st.t, dtd,
			"no convergence even at minimum timestep (recovery disabled)")
	}

	// Rung 2: damped Newton at the minimum viable timestep.
	omega := 0.5
	for k := 0; k < dampingLevels; k++ {
		a := attempt{dt: dtd, omega: omega, lambda: 1, maxIter: 2 * maxIters, rung: RungDamping}
		out := e.attemptStep(st, a)
		st.res.Sweeps += out.sweeps
		if out.nan {
			return e.stepError(simerr.ErrNumerical, st, out.worst, st.t+a.dt, a.dt, "NaN/Inf voltage")
		}
		if out.converged {
			st.res.Recovery.Dampings++
			accept(a, out.sweeps, 0, true)
			return nil
		}
		last = out
		omega /= 2
	}

	// Rung 3: Gmin conductance stepping, each solve seeding the next,
	// ending at the physical gmin = 0.
	if ok, out, a, err := e.homotopy(o, st, dtd, RungGmin); err != nil {
		return err
	} else if ok {
		st.res.Recovery.GminSteps++
		accept(a, out.sweeps, 0, true)
		return nil
	} else if out.worst >= 0 {
		last = out
	}

	// Rung 4: source ramping — apply the step's source change in
	// fractions, carrying the solution forward.
	if ok, out, a, err := e.homotopy(o, st, dtd, RungSourceRamp); err != nil {
		return err
	} else if ok {
		st.res.Recovery.SourceRamps++
		accept(a, out.sweeps, 0, true)
		return nil
	} else if out.worst >= 0 {
		last = out
	}

	return e.stepError(simerr.ErrNoConvergence, st, last.worst, st.t, dtd, "recovery ladder exhausted")
}

// homotopy runs the Gmin or source-ramp rung: a sequence of eased
// problems whose converged solutions seed one another. The final
// problem of the sequence is the physical one, so its solution (when
// every stage converges) is a legitimate step.
func (e *Engine) homotopy(o *Options, st *runState, dt float64, rung Rung) (bool, sweepOut, attempt, error) {
	var stages []attempt
	switch rung {
	case RungGmin:
		for _, g := range gminLadder {
			stages = append(stages, attempt{dt: dt, omega: 0.5, gmin: g, lambda: 1, maxIter: 2 * maxIters, rung: rung})
		}
		stages = append(stages, attempt{dt: dt, omega: 0.5, lambda: 1, maxIter: 2 * maxIters, rung: rung})
	case RungSourceRamp:
		for k := 1; k <= sourceRampSteps; k++ {
			stages = append(stages, attempt{dt: dt, omega: 0.5, lambda: float64(k) / sourceRampSteps, maxIter: 2 * maxIters, rung: rung})
		}
	}
	var out sweepOut
	var a attempt
	for i, stage := range stages {
		if err := e.checkBudgets(o, st); err != nil {
			return false, out, a, err
		}
		stage.keepSeed = i > 0
		a = stage
		out = e.attemptStep(st, a)
		st.res.Sweeps += out.sweeps
		if out.nan {
			return false, out, a, e.stepError(simerr.ErrNumerical, st, out.worst, st.t+a.dt, a.dt, "NaN/Inf voltage")
		}
		if !out.converged {
			return false, out, a, nil
		}
	}
	return true, out, a, nil
}
