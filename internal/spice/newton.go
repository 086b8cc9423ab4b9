package spice

import "math"

// This file is the transient step solver. One backward-Euler step is
// solved by Newton iterations over all free nodes simultaneously: each
// iteration stamps the KCL residual with companion-model capacitor
// stamps (stamp.go) and solves J·delta = f on the engine's sparse
// factorization (sparse.go).
//
// The recovery ladder plugs in as modifications of the same system: an
// attempt's omega damps the whole update vector (RungDamping), its gmin
// loads every diagonal through the stamp pass (RungGmin), and its
// lambda has already moved the fixed source nodes to partial targets
// before this solver runs (RungSourceRamp).

// Newton control: an attempt converges when its largest applied
// voltage move falls below vTol. Attempts on the normal path and the
// back-off rung run at most maxIters iterations; recovery rungs 2–4
// allow twice that.
//
// Step control (advance, recovery.go): a converged step's local
// truncation error on each capacitive node is measured against
// lteRelTol·|v| + lteAbsTol. A step whose largest error ratio exceeds
// lteReject is retried smaller; otherwise the next step is
// dt·min(2, 0.9/√ratio). Error control alone never takes a step below
// dtFloor. A run that records a waveform starts at dtRestart and takes
// it again after every source corner.
const (
	vTol     = 20e-6 // 20 µV
	maxIters = 60

	lteRelTol = 7e-5
	lteAbsTol = 10e-6 // 10 µV
	lteReject = 3
	dtFloor   = 0.5e-12
	dtRestart = 0.625e-12
)

// solveNewton solves one timestep attempt: at most a.maxIter Newton
// iterations, converged when the largest applied voltage move falls
// below vTol. A non-finite residual is device poison and fails fast
// with its node named; a non-finite update of a finite system is an
// ill-conditioned step, reported as non-converged so the recovery
// ladder can retry it.
func (e *Engine) solveNewton(st *runState, a attempt) solveOut {
	out := solveOut{worst: -1}
	if len(e.free) == 0 {
		out.converged = true
		return out
	}
	w, sym := st.w, e.sp.sym
	vtrial := st.vtrial
	// Per-node step limiter: no update moves a node by more than half
	// the rail window.
	lim := 0.5 * (math.Abs(e.tech.Vdd) + 1)
	for ; out.iterations < a.maxIter; out.iterations++ {
		st.einfo.Iteration = out.iterations
		e.stampSystem(w, vtrial, st.v, a.dt, a.gmin, st)
		for k, f := range w.rhs {
			if math.IsNaN(f) || math.IsInf(f, 0) {
				out.nan, out.worst = true, e.free[k]
				return out
			}
		}
		sym.refactor(w.num, w.aval)
		sym.solve(w.num, w.rhs, w.delta)
		for k, d := range w.delta {
			if math.IsNaN(d) || math.IsInf(d, 0) {
				out.worst = e.free[k]
				return out
			}
		}
		maxDelta := 0.0
		for k, i := range e.free {
			step := math.Max(-lim, math.Min(w.delta[k], lim)) * a.omega
			vtrial[i] -= step
			if d := math.Abs(step); d > maxDelta {
				maxDelta = d
				out.worst = i
			}
		}
		if maxDelta < vTol {
			out.converged = true
			out.iterations++
			break
		}
	}
	return out
}
