package mosfet

import "math"

// Equilibrium solves the virtual-ground operating point (paper Eq. 4-5)
// for a set of simultaneously discharging equivalent inverters with
// NMOS gain factors betas (each beta = KPn * (W/L)_eff of the
// pulldown), sharing a sleep resistance r: the virtual ground settles
// where the resistor current Vx/R equals the sum of the gates'
// saturation currents at the reduced gate drive Vdd - Vx - Vtn(Vx).
// bodyEffect selects whether the pulldown threshold rises with Vx
// (paper section 2.1 lists both the gate-drive loss and the body
// effect).
//
// It writes each gate's discharge current into cur (cur[j] for
// betas[j]; cur must be at least as long as betas) and returns the
// virtual-ground voltage and the total current through the sleep
// device.
//
// The equation
//
//	g(Vx) = Vx/R - (sum_j beta_j/2) Vdd^(2-a) (Vdd - Vx - Vt(Vx))^a = 0
//
// has a strictly increasing left side on [0, Vdd-Vt], so it is solved
// with a bracketed Newton iteration (bisection fallback), which also
// absorbs the body-effect term directly. r == 0 (ideal ground, plain
// CMOS) returns Vx = 0 exactly; if no gate conducts the result is all
// zeros.
func Equilibrium(t *Tech, r float64, betas []float64, bodyEffect bool, cur []float64) (vx, itot float64) {
	cur = cur[:len(betas)]
	btot := 0.0
	for _, b := range betas {
		btot += b
	}
	if btot <= 0 || t.Vdd-t.Vtn <= 0 {
		clear(cur)
		return 0, 0
	}
	pdd := math.Pow(t.Vdd, 2-t.Alpha)
	if r > 0 {
		vx = solveVx(t, r, btot, 0.5*btot*pdd, bodyEffect)
	}
	return vx, currents(t, vx, pdd, betas, bodyEffect, cur)
}

// solveVx finds the root of g in [0, Vdd-Vtn] by Newton's method on
// the analytic slope, kept inside a shrinking bracket; k is the summed
// (beta/2) Vdd^(2-a) factor of the device currents.
func solveVx(t *Tech, r, btot, k float64, bodyEffect bool) float64 {
	lo, hi := 0.0, t.Vdd-t.Vtn // g(lo) < 0 <= g(hi)
	vx := quadraticVx(btot, r, hi)
	if vx <= lo || vx >= hi {
		vx = 0.5 * (lo + hi)
	}
	for i := 0; i < 60; i++ {
		// g(vx) = vx/R - k drive^a, drive = Vdd - vx - Vt(vx), and
		// g'(vx) = 1/R + k a drive^(a-1) (1 + Vt'(vx)): one Pow gives
		// both terms. Vt' is the body-effect slope of VtnBody's branches.
		gv, dg := vx/r, 1/r
		vt, dvt := t.Vtn, 0.0
		if bodyEffect {
			vt = t.VtnBody(vx)
			if vx > 0 && t.Gamma != 0 {
				dvt = t.Gamma / (2 * math.Sqrt(t.Phi+vx))
			}
		}
		if drive := t.Vdd - vx - vt; drive > 0 {
			p := math.Pow(drive, t.Alpha)
			gv -= k * p
			dg += k * t.Alpha * p / drive * (1 + dvt)
		}
		// A step this small has converged; tested before the bracket,
		// which a step below vx's ulp would otherwise seem to leave.
		step := gv / dg
		if math.Abs(step) < 1e-13 {
			return vx - step
		}
		if gv > 0 {
			hi = vx
		} else {
			lo = vx
		}
		vx -= step
		if vx <= lo || vx >= hi {
			vx = 0.5 * (lo + hi) // Newton left the bracket: bisect
		}
		if hi-lo < 1e-12 {
			break
		}
	}
	return vx
}

// quadraticVx solves vx/r = (btot/2)(v - vx)^2 for the root in [0, v]:
// the exact alpha=2, no-body-effect solution, used as the Newton seed.
func quadraticVx(btot, r, v float64) float64 {
	a := 0.5 * btot
	// a*vx^2 - (2av + 1/r)*vx + a*v^2 = 0. The physical root is the
	// smaller one (vx < v), taken as 2c / (-b + sqrt(disc)) with
	// disc = (1/r)(1/r + 4av) factored: no difference of near-equal
	// terms, so it keeps its precision when a*v*r is small.
	g := 1 / r
	vx := 2 * a * v * v / (2*a*v + g + math.Sqrt(g*(g+4*a*v)))
	if vx < 0 {
		vx = 0
	}
	if vx > v {
		vx = v
	}
	return vx
}

// Currents writes into out the saturation currents of pulldowns with
// gain factors betas when the virtual ground sits at vx (out[j] for
// betas[j]; out must be at least as long as betas) and returns their
// sum.
func Currents(t *Tech, vx float64, betas []float64, bodyEffect bool, out []float64) float64 {
	return currents(t, vx, math.Pow(t.Vdd, 2-t.Alpha), betas, bodyEffect, out)
}

// currents is Currents with pdd = Vdd^(2-a) already computed.
func currents(t *Tech, vx, pdd float64, betas []float64, bodyEffect bool, out []float64) float64 {
	out = out[:len(betas)]
	vt := t.Vtn
	if bodyEffect {
		vt = t.VtnBody(vx)
	}
	vov := t.Vdd - vx - vt
	if vov <= 0 {
		clear(out)
		return 0
	}
	scale := 0.5 * pdd * math.Pow(vov, t.Alpha)
	sum := 0.0
	for i, b := range betas {
		out[i] = b * scale
		sum += out[i]
	}
	return sum
}
