package mosfet

import (
	"fmt"
	"math"
)

func sqrt(x float64) float64 { return math.Sqrt(x) }

// Kind distinguishes device polarity.
type Kind int

// Device polarities.
const (
	NMOS Kind = iota
	PMOS
)

func (k Kind) String() string {
	if k == PMOS {
		return "pmos"
	}
	return "nmos"
}

// Device is one MOS transistor instance: a polarity, a size, a threshold
// (which may be the high-Vt sleep threshold), and a pointer to its
// technology. Terminal connectivity lives in the netlist and circuit
// packages; Device is pure I-V behaviour.
type Device struct {
	Kind Kind
	WL   float64 // W/L ratio (dimensionless)
	Vt0  float64 // zero-bias threshold magnitude (positive number)
	Tech *Tech
}

// NewNMOS returns a low-Vt NMOS logic device of the given W/L.
func NewNMOS(t *Tech, wl float64) Device {
	return Device{Kind: NMOS, WL: wl, Vt0: t.Vtn, Tech: t}
}

// NewPMOS returns a low-Vt PMOS logic device of the given W/L.
func NewPMOS(t *Tech, wl float64) Device {
	return Device{Kind: PMOS, WL: wl, Vt0: -t.Vtp, Tech: t}
}

// NewSleepNMOS returns a high-Vt NMOS sleep device of the given W/L.
func NewSleepNMOS(t *Tech, wl float64) Device {
	return Device{Kind: NMOS, WL: wl, Vt0: t.VtnHigh, Tech: t}
}

// Beta returns the device gain factor KP*(W/L).
func (d Device) Beta() float64 {
	if d.Kind == PMOS {
		return d.Tech.KPp * d.WL
	}
	return d.Tech.KPn * d.WL
}

// VtBody returns the threshold magnitude including body effect for a
// source-to-bulk voltage magnitude vsb (>= 0).
func (d Device) VtBody(vsb float64) float64 {
	t := d.Tech
	if vsb <= 0 || t.Gamma == 0 {
		return d.Vt0
	}
	return d.Vt0 + t.Gamma*(sqrt(t.Phi+vsb)-sqrt(t.Phi))
}

// Ids returns the drain current for NMOS-normalized terminal voltages:
// vgs, vds, vsb are all magnitudes in the device's own polarity (for a
// PMOS pass vsg, vsd, vbs magnitudes). The returned current is positive
// when the device conducts in its forward direction.
//
// The model is a level-1 square law with channel-length modulation and a
// smooth weak-inversion floor: below threshold the current decays
// exponentially with slope n*vT instead of cutting off, which both
// matches subthreshold physics (the whole point of MTCMOS) and keeps the
// Newton iterations of the transient engine differentiable.
func (d Device) Ids(vgs, vds, vsb float64) float64 {
	if vds < 0 {
		// Source/drain exchange: MOSFETs are symmetric. Recompute with
		// swapped terminals; vgs becomes vgd = vgs - vds, and the body
		// sees the new source.
		return -d.Ids(vgs-vds, -vds, vsb+vds)
	}
	t := d.Tech
	vt := d.VtBody(vsb)
	vov := vgs - vt
	beta := d.Beta()
	nvt := t.SubN * t.TempK * 8.617333262e-5

	// Weak inversion: I = I0*(W/L)*exp(vov/(n*vT))*(1-exp(-vds/vT)).
	// Above threshold the exponential is held at its vov=0 value and
	// added as a floor under the square-law current, which keeps the
	// total continuous across the threshold.
	sat := 1 - math.Exp(-vds/(t.TempK*8.617333262e-5))
	ew := 1.0 // exp(min(vov, 0)/nvt)
	if vov < 0 {
		ew = math.Exp(vov / nvt)
	}
	iweak := t.I0 * d.WL * ew * sat

	if vov <= 0 {
		return iweak
	}
	clm := 1 + t.Lambda*vds
	if vds >= vov {
		// Saturation.
		return 0.5*beta*vov*vov*clm + iweak
	}
	// Triode.
	return beta*(vov-0.5*vds)*vds*clm + iweak
}

// IdsDeriv returns the drain current of Ids together with its analytic
// partial derivatives with respect to the NMOS-normalized terminal
// voltages: gm = dIds/dVgs, gds = dIds/dVds, gmb = dIds/dVsb (gmb is
// non-positive: raising Vsb raises the threshold). The derivatives
// follow the exact branch structure of Ids — square law with
// channel-length modulation, smooth weak-inversion floor, body effect,
// and the vds < 0 terminal-exchange symmetry — so a Jacobian stamped
// from them agrees with a numeric probe of Ids to rounding error.
// Newton solvers assemble sparse Jacobians from these instead of
// probing Ids column by column (see internal/spice stamp.go).
func (d Device) IdsDeriv(vgs, vds, vsb float64) (ids, gm, gds, gmb float64) {
	if vds < 0 {
		// Source/drain exchange, mirroring Ids: evaluate at the
		// swapped terminals and map the partials back through the
		// chain rule of (vgs-vds, -vds, vsb+vds).
		i, gmx, gdsx, gmbx := d.IdsDeriv(vgs-vds, -vds, vsb+vds)
		return -i, -gmx, gmx + gdsx - gmbx, -gmbx
	}
	t := d.Tech
	vt := d.VtBody(vsb)
	// dVt/dVsb of VtBody's two branches.
	dvt := 0.0
	if vsb > 0 && t.Gamma != 0 {
		dvt = t.Gamma / (2 * sqrt(t.Phi+vsb))
	}
	vov := vgs - vt
	beta := d.Beta()
	vT := t.TempK * 8.617333262e-5
	nvt := t.SubN * vT

	c0 := t.I0 * d.WL
	ex := math.Exp(-vds / vT)
	sat := 1 - ex
	dsat := ex / vT
	ew := 1.0 // exp(min(vov, 0)/nvt)
	if vov < 0 {
		ew = math.Exp(vov / nvt)
	}
	iweak := c0 * ew * sat

	if vov <= 0 {
		// Pure weak inversion: ids = c0 * exp(vov/nvt) * sat.
		gm = c0 * sat * ew / nvt
		gds = c0 * ew * dsat
		gmb = -dvt * gm
		return iweak, gm, gds, gmb
	}
	// Above threshold the weak floor is pinned at vov = 0 (ew = 1), so
	// only its vds dependence survives.
	gwk := c0 * ew * dsat
	clm := 1 + t.Lambda*vds
	if vds >= vov {
		// Saturation.
		ids = 0.5*beta*vov*vov*clm + iweak
		gm = beta * vov * clm
		gds = 0.5*beta*vov*vov*t.Lambda + gwk
		gmb = -dvt * gm
		return ids, gm, gds, gmb
	}
	// Triode.
	ids = beta*(vov-0.5*vds)*vds*clm + iweak
	gm = beta * vds * clm
	gds = beta*(vov-vds)*clm + beta*(vov-0.5*vds)*vds*t.Lambda + gwk
	gmb = -dvt * gm
	return ids, gm, gds, gmb
}

// IdsAlpha returns the saturation current using the Sakurai-Newton
// alpha-power law: Idsat = (beta/2) * Vdd^(2-alpha) * (vgs-vt)^alpha.
// The Vdd^(2-alpha) normalization keeps the same units and reduces to
// the square law at alpha=2. Used by the switch-level simulator's
// constant-current discharge model (paper Eq. 3-5).
func (d Device) IdsAlpha(vgs, vsb float64) float64 {
	t := d.Tech
	vt := d.VtBody(vsb)
	vov := vgs - vt
	if vov <= 0 {
		return 0
	}
	return 0.5 * d.Beta() * math.Pow(t.Vdd, 2-t.Alpha) * math.Pow(vov, t.Alpha)
}

// Leakage returns the subthreshold (sleep-mode) current of the device at
// vgs=0 with vds=full rail: the paper's idle-state leakage that MTCMOS
// exists to suppress.
func (d Device) Leakage() float64 {
	return d.Ids(0, d.Tech.Vdd, 0)
}

// SleepResistance returns the linear-resistor approximation of an ON
// high-Vt NMOS sleep transistor of the given W/L (paper section 2.1):
// in normal operation the virtual ground sits near 0V, so the device is
// deep in triode and R = 1/(beta*(Vdd - VtHigh)). The approximation
// degrades as Vdd scales toward VtHigh, which is exactly the paper's
// point about low-voltage sizing pressure.
func SleepResistance(t *Tech, wl float64) (float64, error) {
	if wl <= 0 {
		return 0, fmt.Errorf("mosfet: sleep transistor W/L must be positive, got %g", wl)
	}
	vov := t.Vdd - t.VtnHigh
	if vov <= 0 {
		return 0, fmt.Errorf("mosfet: tech %q: sleep device never turns on (Vdd %g <= VtnHigh %g)", t.Name, t.Vdd, t.VtnHigh)
	}
	return 1 / (t.KPn * wl * vov), nil
}

// SleepWLForResistance inverts SleepResistance: the W/L needed to reach
// a target effective resistance.
func SleepWLForResistance(t *Tech, r float64) (float64, error) {
	if r <= 0 {
		return 0, fmt.Errorf("mosfet: target resistance must be positive, got %g", r)
	}
	vov := t.Vdd - t.VtnHigh
	if vov <= 0 {
		return 0, fmt.Errorf("mosfet: tech %q: sleep device never turns on", t.Name)
	}
	return 1 / (t.KPn * r * vov), nil
}
