// Package core implements the paper's primary contribution: the
// variable-breakpoint switch-level simulator (VBS) for MTCMOS circuits
// (paper section 5).
//
// Every gate is modeled as an equivalent inverter discharging (or
// charging) a lumped load with a piecewise-constant current. Falling
// gates share the sleep transistor, so their currents depend on the
// virtual-ground voltage Vx, which is re-solved from the equilibrium
// equation (paper Eq. 4-5) every time the set of discharging gates
// changes. Output waveforms are therefore piecewise linear, with
// breakpoints wherever any gate starts switching, crosses the logic
// threshold Vdd/2 (possibly toggling its fanout), or reaches a rail.
// The simulator steps directly from breakpoint to breakpoint; between
// them nothing changes, which is what makes it orders of magnitude
// faster than a transistor-level transient.
//
// With SleepWL == 0 (plain CMOS) the model degenerates to constant
// current-source discharge, the baseline the paper uses to define "%
// degradation due to MTCMOS".
package core

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

	"mtcmos/internal/circuit"
	"mtcmos/internal/mosfet"
	"mtcmos/internal/simerr"
	"mtcmos/internal/wave"
)

// Options configures a switch-level run.
type Options struct {
	// NoBodyEffect disables the pulldown-threshold rise with the
	// virtual-ground bounce (paper section 2.1); used by the A-BODY
	// ablation.
	NoBodyEffect bool

	// ReverseConduction pins idle-low outputs to the virtual ground
	// voltage (paper section 2.3): rising transitions start precharged
	// at Vx (slightly faster), and the result reports the worst-case
	// noise-margin loss.
	ReverseConduction bool

	// TraceNets records piecewise-linear waveforms for these nets. The
	// virtual ground and total sleep current are always recorded in
	// MTCMOS mode.
	TraceNets []string

	// MaxEvents guards against runaway simulations. Default 2,000,000.
	// Exceeding it returns the partial Result with an ErrBudget
	// failure (see DESIGN.md §8).
	MaxEvents int

	// Ctx cancels the run between events and is its wall-clock budget:
	// a fired context returns the partial Result with the failure
	// simerr.FromContext classifies (ErrBudget on a deadline or a
	// budget cause, ErrCancelled otherwise).
	Ctx context.Context

	// TStop optionally caps simulated time after the input edge;
	// default is to run until the circuit quiesces.
	TStop float64

	// RecordActivity collects per-gate discharge intervals into
	// Result.Activity — the raw material for mutual-exclusion analysis
	// (hierarchical sizing).
	RecordActivity bool

	// InputSlope enables the input-slope correction the paper lists as
	// future work (section 5.3): while a gate's driving input is still
	// ramping toward the rail, its switching current is scaled by the
	// ramp-averaged alpha-power drive instead of the full-rail value.
	InputSlope bool

	// Triode enables the triode-region correction (section 5.3: "the
	// assumption that the output capacitance is discharged by a
	// current source equal to the saturation current is simply
	// false"): once the device's Vds drops below its overdrive the
	// current follows the level-1 triode ratio, refined with extra
	// voltage-limited breakpoints.
	Triode bool
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.MaxEvents <= 0 {
		out.MaxEvents = 2_000_000
	}
	return out
}

// Result reports waveforms, crossing times and sleep-device stress for
// one input-vector transition.
type Result struct {
	// Crossings maps net name to the times its waveform crossed Vdd/2,
	// in order (inputs record their edge instant).
	Crossings map[string][]float64

	// Waves holds PWL waveforms for traced nets.
	Waves map[string]*wave.PWL

	// VGnd is the virtual-ground waveform of sleep domain 0 (stepwise
	// when Cx=0, exactly as the paper describes in Fig. 11). Nil for
	// plain CMOS.
	VGnd *wave.PWL

	// ISleep is domain 0's total sleep-device current waveform; its
	// peak is the quantity the conservative peak-current sizing method
	// uses (paper section 4). Nil for plain CMOS.
	ISleep *wave.PWL

	PeakVx     float64
	PeakISleep float64

	// Domains holds the per-domain rails of a multi-domain circuit
	// (hierarchical MTCMOS); index-aligned with Circuit.Domains().
	// Entries for domains tied to real ground are zero-valued.
	Domains []DomainResult

	// NoiseMarginLoss is the worst virtual-ground bounce seen while
	// any idle-low output was pinned to it (ReverseConduction mode).
	NoiseMarginLoss float64

	// Final holds the settled logic value of every net, for functional
	// cross-checking against a static evaluation of the new vector.
	Final map[string]bool

	// Activity records, per gate ID, the [start, end) time intervals
	// during which the gate was discharging through its pulldown
	// (only with Options.RecordActivity).
	Activity [][]Interval

	// TEdge is the instant the inputs crossed Vdd/2; delays are
	// measured from it. TEnd is the last event time.
	TEdge float64
	TEnd  float64
	// Events is the number of breakpoints processed.
	Events int
	// Stalled reports that some gate was left mid-transition with no
	// drive (possible only under extreme virtual-ground bounce).
	Stalled bool
}

// Delay returns the 50%-50% propagation delay of a net: the last
// crossing of Vdd/2 at or after the input edge. ok is false if the net
// never toggled.
func (r *Result) Delay(net string) (float64, bool) {
	cr := r.Crossings[net]
	if len(cr) == 0 {
		return 0, false
	}
	return cr[len(cr)-1] - r.TEdge, true
}

// Interval is a half-open time window [Start, End).
type Interval struct {
	Start, End float64
}

// Overlaps reports whether two intervals intersect.
func (iv Interval) Overlaps(o Interval) bool {
	return iv.Start < o.End && o.Start < iv.End
}

// DomainResult reports one sleep domain's rail activity.
type DomainResult struct {
	VGnd       *wave.PWL
	ISleep     *wave.PWL
	PeakVx     float64
	PeakISleep float64
}

// MaxDelay returns the largest settling delay across the given nets
// and the net that set it. ok reports whether any net toggled.
func (r *Result) MaxDelay(nets []string) (d float64, net string, ok bool) {
	for _, n := range nets {
		if dd, toggled := r.Delay(n); toggled {
			ok = true
			if dd > d {
				d, net = dd, n
			}
		}
	}
	return d, net, ok
}

type dir int8

const (
	idle dir = iota
	rising
	falling
)

type gateState struct {
	v     float64
	slope float64 // zero while idle
	d     dir
	logic bool // output logic level as seen by fanout (v >= Vdd/2)

	// rampEnd is the time the gate's driving input finishes its own
	// transition (InputSlope model); the gate switches at reduced
	// drive until then.
	rampEnd float64
}

// crossing is one Vdd/2 crossing of a net (by Net.ID) at time t.
type crossing struct {
	net int
	t   float64
}

// eqMemo is a domain's last virtual-ground solve. Equilibrium is a
// pure function of (tech, r, betas, body), and all but betas are fixed
// for a domain within a run, so a falling set with the same beta list
// reuses the solve.
type eqMemo struct {
	betas, cur []float64
	vx, itot   float64
	ok         bool
}

// sim is the per-run simulator state. Compiled pools it, so every
// slice here is sized once per engine and reused across runs.
type sim struct {
	c    *circuit.Circuit
	o    Options
	tech *mosfet.Tech

	doms []circuit.Domain // per-domain configuration
	rs   []float64        // per-domain sleep resistance (0 = ideal ground)

	eq  []circuit.EquivGate
	ipu []float64 // constant pullup current per gate

	st []gateState
	// active holds the non-idle gates as a bitset by gate ID; act lists
	// them in ascending ID, rebuilt once per event after the retargets.
	// Visiting gates in ID order keeps every beta sum and the retarget
	// order independent of how gates entered the set.
	active []uint64
	act    []int

	logic []bool      // per net ID: logic level seen by the fanout
	waves []*wave.PWL // per net ID: traced waveform, nil if untraced
	xs    []crossing  // this run's crossings, in event order
	ncr   []int       // per net ID: crossing count, then slab offset
	in    []bool      // gate-input scratch for retarget

	vx       []float64 // per-domain virtual-ground voltage
	vxSlope  []float64 // per-domain dVx/dt; only nonzero in Cx mode
	anyRelax bool      // some domain has a VGndCap

	betas    []float64
	ids      []int
	cur      []float64 // per-gate currents of the Cx path
	memo     []eqMemo  // per domain
	crossers []int

	// vgnd and isleep are each sleep domain's rail waveforms, built
	// here and copied to exact size into the Result by collect.
	vgnd, isleep []wave.PWL

	res       *Result
	fallStart []float64 // per gate, start of current discharge (-1 idle)
	prevDir   []dir     // per gate, direction at the previous event

	kRampN float64 // ramp-averaged NMOS drive factor (InputSlope model)
	kRampP float64 // ramp-averaged PMOS drive factor
	tNow   float64 // current event time, for retarget's ramp bookkeeping
}

// Simulate runs the variable-breakpoint switch-level simulation of one
// input-vector transition on a gate-level circuit. It is Compile
// followed by a single Run; callers with many transitions or W/L
// points over the same circuit should Compile once and reuse the
// engine (see Compiled).
func Simulate(c *circuit.Circuit, stim circuit.Stimulus, opts Options) (*Result, error) {
	cp, err := Compile(c)
	if err != nil {
		return nil, err
	}
	return cp.Run(stim, opts)
}

func (s *sim) trace(net int, t, v float64) {
	if w := s.waves[net]; w != nil {
		w.Append(t, v)
	}
}

// setDir moves gate i to direction d, keeping the active set and an
// idle gate's zero slope.
func (s *sim) setDir(i int, d dir) {
	s.st[i].d = d
	if d == idle {
		s.st[i].slope = 0
		s.active[i>>6] &^= 1 << (i & 63)
	} else {
		s.active[i>>6] |= 1 << (i & 63)
	}
}

// listActive rebuilds act from the active bitset.
func (s *sim) listActive() {
	s.act = s.act[:0]
	for w, word := range s.active {
		for ; word != 0; word &= word - 1 {
			s.act = append(s.act, w<<6|bits.TrailingZeros64(word))
		}
	}
}

// recompute re-solves every domain's virtual ground over its falling
// set and refreshes every active gate's slope (the "recompute
// breakpoints" step of paper section 5.2).
func (s *sim) recompute(t float64) {
	body := !s.o.NoBodyEffect
	for di := range s.doms {
		// Drive-reduction factors of the accuracy extensions are
		// evaluated at the pre-solve Vx (one event of lag, refined by
		// the extra triode breakpoints).
		vt0 := s.tech.Vtn
		if body {
			vt0 = s.tech.VtnBody(s.vx[di])
		}
		vovN := s.tech.Vdd - s.vx[di] - vt0
		s.betas = s.betas[:0]
		s.ids = s.ids[:0]
		for _, i := range s.act {
			if s.c.Gates[i].Domain != di {
				continue
			}
			if s.st[i].d == falling && s.st[i].v > 0 {
				b := s.eq[i].BetaN
				if s.o.InputSlope && t < s.st[i].rampEnd {
					b *= s.kRampN
				}
				if s.o.Triode {
					b *= triodeRatioN(s.st[i].v, s.vx[di], vovN)
				}
				s.betas = append(s.betas, b)
				s.ids = append(s.ids, i)
			}
		}
		r := s.rs[di] // 0 exactly when the domain has no sleep device
		cx := s.doms[di].VGndCap
		mtc := s.doms[di].SleepWL > 0

		var currents []float64
		var itot float64
		if mtc && cx > 0 {
			// Vx is a state: Cx dVx/dt = Itot(Vx) - Vx/R; the drive is
			// evaluated at the *current* Vx rather than the equilibrium.
			currents = s.cur[:len(s.betas)]
			itot = mosfet.Currents(s.tech, s.vx[di], s.betas, body, currents)
			s.vxSlope[di] = (itot - s.vx[di]/r) / cx
		} else {
			m := &s.memo[di]
			if !m.ok || !slices.Equal(m.betas, s.betas) {
				m.betas = append(m.betas[:0], s.betas...)
				m.vx, m.itot = mosfet.Equilibrium(s.tech, r, s.betas, body, m.cur)
				m.ok = true
			}
			currents, itot = m.cur[:len(s.betas)], m.itot
			s.vx[di], s.vxSlope[di] = m.vx, 0
		}

		if mtc {
			dr := &s.res.Domains[di]
			if s.vx[di] > dr.PeakVx {
				dr.PeakVx = s.vx[di]
			}
			s.vgnd[di].Append(t, s.vx[di])
			s.isleep[di].Append(t, itot)
			if itot > dr.PeakISleep {
				dr.PeakISleep = itot
			}
			if di == 0 {
				s.res.PeakVx = dr.PeakVx
				s.res.PeakISleep = dr.PeakISleep
			}
		}

		for k, i := range s.ids {
			cl := math.Max(s.eq[i].CL, 1e-18)
			s.st[i].slope = -currents[k] / cl
		}
	}
	vovP := s.tech.Vdd + s.tech.Vtp
	for _, i := range s.act {
		if s.st[i].d != rising {
			continue
		}
		cl := math.Max(s.eq[i].CL, 1e-18)
		ip := s.ipu[i]
		if s.o.InputSlope && t < s.st[i].rampEnd {
			ip *= s.kRampP
		}
		if s.o.Triode {
			ip *= triodeRatioP(s.st[i].v, s.tech.Vdd, vovP)
		}
		s.st[i].slope = ip / cl
	}
}

// retarget updates a gate's direction after its inputs changed;
// reports whether the direction changed.
func (s *sim) retarget(i int) bool {
	g := s.c.Gates[i]
	want := g.Eval(s.logic, s.in)
	var nd dir
	switch {
	case want && s.st[i].v >= s.tech.Vdd-1e-12:
		nd = idle
	case want:
		nd = rising
	case !want && s.st[i].v <= 1e-12:
		nd = idle
	default:
		nd = falling
	}
	if s.o.InputSlope && nd != idle && nd != s.st[i].d {
		// The new transition is driven by an input still completing
		// its own swing from Vdd/2 to the rail; estimate that
		// remaining time from the driver's current slope.
		s.st[i].rampEnd = s.tNow + s.driverRemaining(g)
	}
	if vx := s.vx[g.Domain]; nd == rising && s.o.ReverseConduction && s.st[i].v < vx {
		// The output was pinned at Vx by reverse conduction; it starts
		// its rise precharged (paper section 2.3).
		s.st[i].v = vx
		if vx > s.res.NoiseMarginLoss {
			s.res.NoiseMarginLoss = vx
		}
	}
	if nd != s.st[i].d {
		s.setDir(i, nd)
		return true
	}
	return false
}

// vtol is the voltage half-width of the logic-threshold tie band: a
// waveform within vtol of Vdd/2 is considered "at" the threshold and
// its logic level is resolved by transition direction.
const vtol = 1e-9

// maxVxStep bounds the virtual-ground voltage change between
// breakpoints when the circuit has a parasitic VGndCap (paper section
// 2.2); extra breakpoints are inserted as needed.
const maxVxStep = 0.02 // 20 mV

// run is the event loop. Each event costs O(gates in flight): only the
// active set is scanned for the next breakpoint, advanced and re-sloped.
func (s *sim) run(stim circuit.Stimulus) error {
	// railTol snaps voltages to the rails: accumulated floating-point
	// error in v can otherwise leave a gate a fraction of an ulp short
	// of the rail, whose remaining transition time underflows below
	// the resolution of t and stalls the event loop.
	const railTol = 1e-12
	tech := s.tech
	half := tech.Vdd / 2
	tEdge := s.res.TEdge
	inputsApplied := false
	horizon := math.Inf(1)
	if s.o.TStop > 0 {
		horizon = tEdge + s.o.TStop
	}

	t := 0.0
	s.tNow = 0
	s.listActive()
	s.recompute(0)

	for ev := 0; ; ev++ {
		if ev >= s.o.MaxEvents {
			return &simerr.Error{Kind: simerr.ErrBudget, Op: "core", T: t, Steps: ev,
				Msg: fmt.Sprintf("exceeded %d events (oscillating circuit?)", s.o.MaxEvents)}
		}
		// The context is polled every few events: cheap enough to keep
		// in the hot loop, frequent enough that overshoot stays
		// negligible.
		if ev%64 == 0 {
			if err := simerr.FromContext(s.o.Ctx, "core"); err != nil {
				err.T, err.Steps = t, ev
				return err
			}
		}
		// Next breakpoint: earliest threshold crossing or rail arrival
		// over active gates, the pending input edge, and the Vx
		// relaxation limit in Cx mode.
		next := math.Inf(1)
		if !inputsApplied {
			next = tEdge
		}
		stalled := false
		for _, i := range s.act {
			g := &s.st[i]
			if math.Abs(g.slope) < 1e-3 { // below 1 nV/us: stuck
				stalled = true
				continue
			}
			var tc, tf float64
			if g.d == falling {
				tf = t + g.v/-g.slope
				tc = math.Inf(1)
				if g.v > half+vtol {
					tc = t + (g.v-half)/-g.slope
				}
			} else {
				tf = t + (tech.Vdd-g.v)/g.slope
				tc = math.Inf(1)
				if g.v < half-vtol {
					tc = t + (half-g.v)/g.slope
				}
			}
			if tc < next {
				next = tc
			}
			if tf < next {
				next = tf
			}
			// Accuracy-extension breakpoints: the end of the driving
			// input's ramp, and voltage-limited refinement steps while
			// a device operates in its triode region.
			if s.o.InputSlope && g.rampEnd > t && g.rampEnd < next {
				next = g.rampEnd
			}
			if s.o.Triode {
				// Saturation/triode boundary voltage of the conducting
				// device (falling: pulldown; rising: pullup).
				var vBound float64
				var inTriode bool
				if g.d == falling {
					vx := s.vx[s.c.Gates[i].Domain]
					vBound = vx + (tech.Vdd - vx - tech.Vtn) // v below this: triode
					inTriode = g.v < vBound+1e-9
				} else {
					vBound = -tech.Vtp // v above |Vtp|: pullup in triode
					inTriode = g.v > vBound-1e-9
				}
				if inTriode {
					// Voltage-limited refinement inside the triode
					// region keeps the PWL close to the true
					// exponential tail.
					if lim := t + 0.05*tech.Vdd/math.Abs(g.slope); lim < next {
						next = lim
					}
				} else {
					// Breakpoint at the boundary itself so the slope
					// is re-derated the moment the device leaves
					// saturation.
					var tb float64
					if g.d == falling {
						tb = t + (g.v-vBound)/-g.slope
					} else {
						tb = t + (vBound-g.v)/g.slope
					}
					if tb > t && tb < next {
						next = tb
					}
				}
			}
		}
		if s.anyRelax {
			for di := range s.doms {
				if sl := math.Abs(s.vxSlope[di]); sl > 1e-9 {
					if lim := t + maxVxStep/sl; lim < next {
						next = lim
					}
				}
			}
		}

		if math.IsInf(next, 1) {
			s.res.Stalled = stalled
			break
		}
		if next > horizon {
			t = horizon
			break
		}
		if next < t {
			next = t
		}
		dt := next - t
		s.tNow = next
		t = next
		s.res.Events++

		// Advance active gates; collect threshold crossers.
		s.crossers = s.crossers[:0]
		for _, i := range s.act {
			g := &s.st[i]
			g.v += g.slope * dt
			if g.d == falling && g.v <= railTol {
				g.v = 0
				s.setDir(i, idle)
			} else if g.d == rising && g.v >= tech.Vdd-railTol {
				g.v = tech.Vdd
				s.setDir(i, idle)
			}
			s.trace(s.c.Gates[i].Out.ID, t, g.v)
			// Logic level with direction-resolved ties: crossing
			// events land on (or within vtol of) Vdd/2, where the
			// transition direction decides the new level. No further
			// crossing breakpoints are scheduled from inside the band,
			// which guarantees time always advances.
			var newLogic bool
			switch {
			case g.v > half+vtol:
				newLogic = true
			case g.v < half-vtol:
				newLogic = false
			default:
				newLogic = g.d == rising
			}
			if newLogic != g.logic {
				g.logic = newLogic
				s.crossers = append(s.crossers, i)
			}
		}
		// Advance the Vx states in Cx mode.
		if s.anyRelax {
			for di := range s.doms {
				s.vx[di] += s.vxSlope[di] * dt
				if s.vx[di] < 0 {
					s.vx[di] = 0
				}
			}
		}

		// Apply the input edge.
		if !inputsApplied && t >= tEdge-1e-18 {
			inputsApplied = true
			for _, in := range s.c.Inputs {
				nv := stim.New[in.Name]
				if s.logic[in.ID] == nv {
					continue
				}
				s.logic[in.ID] = nv
				s.xs = append(s.xs, crossing{in.ID, t})
				v := 0.0
				if nv {
					v = tech.Vdd
				}
				s.trace(in.ID, t, v)
				for _, ld := range in.Loads {
					s.retarget(ld.ID)
				}
			}
		}
		// Propagate crossings to fanout.
		for _, i := range s.crossers {
			out := s.c.Gates[i].Out
			s.logic[out.ID] = s.st[i].logic
			s.xs = append(s.xs, crossing{out.ID, t})
			for _, ld := range out.Loads {
				s.retarget(ld.ID)
			}
		}

		s.listActive()
		s.recompute(t)
		s.recordActivity(t)
		s.res.TEnd = t
	}

	// Close out traces; in Cx mode append the exponential recovery
	// tail of the virtual ground (paper section 2.2: a large RC is
	// slow to discharge back to ground after the transition).
	for i, g := range s.c.Gates {
		s.trace(g.Out.ID, t+1e-15, s.st[i].v)
	}
	for di := range s.doms {
		if s.doms[di].SleepWL <= 0 {
			continue
		}
		vg := &s.vgnd[di]
		vg.Append(t+1e-15, s.vx[di])
		cx, r := s.doms[di].VGndCap, s.rs[di]
		if cx > 0 && s.vx[di] > 1e-6 && r > 0 {
			tau := r * cx
			for k := 1; k <= 8; k++ {
				vg.Append(t+float64(k)*tau, s.vx[di]*math.Exp(-float64(k)))
			}
		}
	}
	s.recordActivity(t) // close any open discharge intervals
	if s.o.RecordActivity {
		for i := range s.st {
			if s.fallStart[i] >= 0 {
				s.res.Activity[i] = append(s.res.Activity[i], Interval{s.fallStart[i], t})
				s.fallStart[i] = -1
			}
		}
	}
	return nil
}

// collect builds the Result's waveforms and net-keyed maps from the
// run's pooled, net-indexed state: each net's crossings are carved from
// one slab and sorted, and Final (only for a completed run) holds every
// net's settled level.
func (s *sim) collect(completed bool) {
	for di, d := range s.doms {
		if d.SleepWL > 0 {
			dr := &s.res.Domains[di]
			dr.VGnd, dr.ISleep = detach(&s.vgnd[di]), detach(&s.isleep[di])
		}
	}
	if s.doms[0].SleepWL > 0 {
		s.res.VGnd, s.res.ISleep = s.res.Domains[0].VGnd, s.res.Domains[0].ISleep
	}

	nets := s.c.Nets()
	for _, x := range s.xs {
		s.ncr[x.net]++
	}
	crossed, off := 0, 0
	for id, n := range s.ncr {
		if n > 0 {
			crossed++
		}
		s.ncr[id] = off
		off += n
	}
	slab := make([]float64, len(s.xs))
	for _, x := range s.xs {
		slab[s.ncr[x.net]] = x.t
		s.ncr[x.net]++
	}
	// ncr[id] is now the end of net id's run in the slab, and the
	// previous net's end is its start.
	s.res.Crossings = make(map[string][]float64, crossed)
	start := 0
	for id, end := range s.ncr {
		if end > start {
			ts := slab[start:end:end]
			sort.Float64s(ts)
			s.res.Crossings[nets[id].Name] = ts
		}
		start = end
	}
	s.res.Waves = make(map[string]*wave.PWL, len(s.o.TraceNets))
	for id, w := range s.waves {
		if w != nil {
			s.res.Waves[nets[id].Name] = w
		}
	}
	if completed {
		s.res.Final = make(map[string]bool, len(nets))
		for _, n := range nets {
			s.res.Final[n.Name] = s.logic[n.ID]
		}
	}
}

// detach copies a pooled waveform into one exact-size allocation.
func detach(p *wave.PWL) *wave.PWL {
	n := len(p.T)
	buf := make([]float64, 2*n)
	copy(buf, p.T)
	copy(buf[n:], p.V)
	return &wave.PWL{T: buf[:n:n], V: buf[n:]}
}

// rampFactor integrates the alpha-power drive over an input ramp from
// Vdd/2 to Vdd, normalized to the full-rail drive: the average current
// available while the driving input is still swinging.
func rampFactor(vdd, vt, alpha float64) float64 {
	if vdd-vt <= 0 {
		return 1
	}
	full := math.Pow(vdd-vt, alpha)
	const n = 32
	sum := 0.0
	for k := 0; k < n; k++ {
		vin := vdd/2 + vdd/2*(float64(k)+0.5)/n
		ov := vin - vt
		if ov > 0 {
			sum += math.Pow(ov, alpha)
		}
	}
	return sum / n / full
}

// driverRemaining estimates how long the gate's switching input still
// needs to finish its swing (from Vdd/2 to the rail).
func (s *sim) driverRemaining(g *circuit.Gate) float64 {
	rem := 0.0
	for _, in := range g.In {
		drv := in.Driver
		if drv == nil {
			continue // primary inputs: treated as fast edges
		}
		ds := &s.st[drv.ID]
		if ds.d == idle || math.Abs(ds.slope) < 1e-3 {
			continue
		}
		var r float64
		if ds.d == falling {
			r = ds.v / -ds.slope
		} else {
			r = (s.tech.Vdd - ds.v) / ds.slope
		}
		if r > rem {
			rem = r
		}
	}
	return rem
}

// triodeRatioN returns the level-1 triode/saturation current ratio of
// a falling gate's pulldown with output v, source at vx and overdrive
// vov (1 when the device is still saturated).
func triodeRatioN(v, vx, vov float64) float64 {
	vds := v - vx
	if vov <= 0 || vds >= vov {
		return 1
	}
	if vds <= 0 {
		return triodeFloor
	}
	r := (2*vov*vds - vds*vds) / (vov * vov)
	if r < triodeFloor {
		return triodeFloor
	}
	return r
}

// triodeFloor keeps a sliver of drive as Vds approaches zero so that
// transitions terminate: the true exponential tail never reaches the
// rail, while the switch-level model needs a finite finish breakpoint.
const triodeFloor = 0.02

// triodeRatioP is the pullup dual: drain at v, source at Vdd.
func triodeRatioP(v, vdd, vovP float64) float64 {
	vsd := vdd - v
	if vovP <= 0 || vsd >= vovP {
		return 1
	}
	if vsd <= 0 {
		return triodeFloor
	}
	r := (2*vovP*vsd - vsd*vsd) / (vovP * vovP)
	if r < triodeFloor {
		return triodeFloor
	}
	return r
}

// recordActivity tracks per-gate discharge windows by diffing gate
// directions against the previous event.
func (s *sim) recordActivity(t float64) {
	if !s.o.RecordActivity {
		return
	}
	for i := range s.st {
		now := s.st[i].d
		was := s.prevDir[i]
		if was != falling && now == falling {
			s.fallStart[i] = t
		} else if was == falling && now != falling && s.fallStart[i] >= 0 {
			if t > s.fallStart[i] {
				s.res.Activity[i] = append(s.res.Activity[i], Interval{s.fallStart[i], t})
			}
			s.fallStart[i] = -1
		}
		s.prevDir[i] = now
	}
}
