package spice

import (
	"context"
	"fmt"
	"math"

	"mtcmos/internal/simerr"
)

// gmin stepping schedule: start heavily loaded toward ground, relax to
// a 1e-16 S floor — 0.1 fA at 1 V, below the femtoamp leakage signals
// this solver exists to resolve, while keeping isolated OFF-stack
// nodes' Jacobian columns nonsingular. The two heavy leading stages
// only do work on cold starts of large circuits (their tolerance is
// loose enough that a warm solution passes straight through); they
// anchor the mA-scale nonlinearities that make a from-zero Newton
// wander.
var opGmins = []float64{1e-4, 1e-5, 1e-6, 1e-8, 1e-10, 1e-12, 1e-14, 1e-16}

// opScales is the backtracking line-search schedule: accept the first
// step fraction that reduces the residual norm; if none does, keep the
// smallest step so the iteration still moves off limit cycles.
var opScales = []float64{1, 0.5, 0.25, 0.125, 0.0625}

// opClamp bounds each Newton update component to keep the exponential
// subthreshold terms in their basin. Per-component (not a global
// rescale): one near-singular node demanding a huge correction must
// not starve every other node of its step.
const opClamp = 0.25

// opTol is the residual convergence tolerance at a gmin stage:
// machine-precision-scale for the physics, but never below the gmin
// homotopy artifact (a node held at the voltage clamp cannot balance
// its gmin load).
func opTol(gmin, vdd float64) float64 {
	return math.Max(1e-15, 2*gmin*(vdd+1))
}

// Polish control: once the final gmin stage has met the residual
// tolerance, the ladder runs a few more undamped Newton iterations
// until the voltage update stalls below opPolishTol. Newton's fixed
// point is the root of the residual, so polishing parks every solve
// on the same answer to within rounding whatever its starting point —
// which keeps rendered leakage stable when the warm start changes.
const (
	opPolishTol = 1e-12
	opPolishMax = 6
)

// OPStats reports what a DC solve cost.
type OPStats struct {
	Iterations int  // Newton iterations (one refactorization each)
	Evals      int  // device (MOS) model evaluations
	Ramped     bool // cold start needed the supply-ramp rescue
}

// OperatingPoint computes the DC steady state of the compiled circuit
// with a full Newton iteration over all free nodes and gmin stepping
// for robustness. The full Newton follows collective slow modes — e.g.
// an MTCMOS virtual ground floating up in standby together with every
// output-low load. Sources are evaluated at time tEval; seed voltages
// (by node name) accelerate convergence.
func (e *Engine) OperatingPoint(seed map[string]float64, tEval float64) ([]float64, error) {
	v, _, err := e.OperatingPointStats(seed, tEval)
	return v, err
}

// OperatingPointStats is OperatingPoint plus cost accounting.
func (e *Engine) OperatingPointStats(seed map[string]float64, tEval float64) ([]float64, OPStats, error) {
	v := make([]float64, len(e.names))
	for name, val := range seed {
		if i, ok := e.index[name]; ok {
			v[i] = val
		}
	}
	return e.operatingPoint(context.TODO(), v, tEval)
}

// operatingPoint solves the DC steady state from the seed voltages in
// v, which it overwrites: a direct attempt first, then — exactly as
// the transient ladder's last rung does — a supply-ramp homotopy for
// cold starts whose straight Newton walks out of the basin. Each ramp
// stage solves a full gmin ladder at partial supply values and seeds
// the next; the final stage is the physical problem, so its solution
// is legitimate. A fired ctx stops the solve between gmin stages and
// between ramp stages with its classified failure.
func (e *Engine) operatingPoint(ctx context.Context, v []float64, tEval float64) ([]float64, OPStats, error) {
	var stats OPStats
	for _, s := range e.srcs {
		if s.node != groundIdx {
			v[s.node] = s.v.At(tEval)
		}
	}
	if len(e.free) == 0 {
		return v, stats, nil
	}
	st := e.lease()
	defer e.release(st)
	if err := e.opLadder(ctx, st.w, v, &stats); err == nil || simerr.Kind(err) != nil {
		return v, stats, err // solved, or the context fired: no ramp rescue
	}
	stats.Ramped = true
	clear(v)
	for _, lambda := range []float64{0.25, 0.5, 0.75, 1} {
		for _, s := range e.srcs {
			if s.node != groundIdx {
				v[s.node] = lambda * s.v.At(tEval)
			}
		}
		if err := e.opLadder(ctx, st.w, v, &stats); err != nil {
			return nil, stats, err
		}
	}
	return v, stats, nil
}

// opApply applies a Newton update scaled by scale with rail clamping
// and returns the largest applied voltage move.
func (e *Engine) opApply(v, delta []float64, scale float64) float64 {
	maxStep := 0.0
	for k, i := range e.free {
		step := scale * delta[k]
		if a := math.Abs(step); a > maxStep {
			maxStep = a
		}
		v[i] -= step
		// Voltages cannot leave the rail window by much.
		v[i] = math.Max(-1, math.Min(v[i], e.tech.Vdd+1))
	}
	return maxStep
}

// opLadder runs the gmin-stepping Newton iteration: at each gmin
// stage, damped Newton steps (per-component clamp plus a backtracking
// line search on the residual norm) until the stage tolerance holds,
// then on the final stage a polish to a stationary point. Returns an
// error when the final stage cannot reach even the relaxed residual
// bound, or the classified failure when ctx fires before a stage.
func (e *Engine) opLadder(ctx context.Context, w *spWork, v []float64, stats *OPStats) error {
	sym := e.sp.sym
	// residual stamps the system at v (refreshing the Jacobian too)
	// and returns the residual's infinity norm.
	residual := func(gmin float64) float64 {
		stats.Evals += e.stampSystem(w, v, nil, 0, gmin, nil)
		maxf := 0.0
		for _, x := range w.rhs {
			if a := math.Abs(x); a > maxf {
				maxf = a
			}
		}
		return maxf
	}
	// newton solves J·delta = f at the most recent residual point.
	newton := func() []float64 {
		sym.refactor(w.num, w.aval)
		sym.solve(w.num, w.rhs, w.delta)
		stats.Iterations++
		return w.delta
	}
	vdd := e.tech.Vdd
	vsave := make([]float64, len(v))
	last := len(opGmins) - 1
	for gi, gmin := range opGmins {
		if err := simerr.FromContext(ctx, "spice"); err != nil {
			return err
		}
		converged := false
		maxf := residual(gmin)
		for iter := 0; iter < 80; iter++ {
			if maxf < opTol(gmin, vdd) {
				converged = true
				break
			}
			delta := newton()
			for i, d := range delta {
				if math.IsNaN(d) || math.IsInf(d, 0) {
					return fmt.Errorf("spice: operating point: non-finite Newton update at node %s", e.names[e.free[i]])
				}
				delta[i] = math.Max(-opClamp, math.Min(d, opClamp))
			}
			copy(vsave, v)
			accepted := false
			for _, sc := range opScales {
				copy(v, vsave)
				e.opApply(v, delta, sc)
				if mf := residual(gmin); mf < maxf {
					maxf = mf
					accepted = true
					break
				}
			}
			if !accepted {
				// No fraction improved: keep the smallest step (v
				// currently holds it) so the iteration can escape a
				// limit cycle instead of stalling in place.
				maxf = residual(gmin)
			}
		}
		if gi < last {
			continue
		}
		if !converged {
			// The final refinement is allowed to stop above the strict
			// tolerance: femtoamp-scale residuals ride rounding noise.
			if maxf := residual(0); maxf > 1e-12 {
				return fmt.Errorf("spice: operating point did not converge (max residual %g A)", maxf)
			}
			return nil
		}
		// Polish the final stage to a stationary point (see the
		// opPolishTol comment for why).
		for p := 0; p < opPolishMax; p++ {
			residual(gmin)
			delta := newton()
			finite := true
			for _, d := range delta {
				if math.IsNaN(d) || math.IsInf(d, 0) {
					finite = false
				}
			}
			if !finite {
				break
			}
			if e.opApply(v, delta, 1) < opPolishTol {
				break
			}
		}
	}
	return nil
}

// NodeVoltage reads one node from an operating-point vector.
func (e *Engine) NodeVoltage(v []float64, name string) (float64, bool) {
	i, ok := e.index[name]
	if !ok {
		return 0, false
	}
	return v[i], true
}

// SupplyCurrent returns the current a source-driven node delivers into
// the devices at the operating point.
func (e *Engine) SupplyCurrent(v []float64, name string) (float64, bool) {
	i, ok := e.index[name]
	if !ok {
		return 0, false
	}
	return -e.deviceCurrentInto(i, v, nil), true
}
