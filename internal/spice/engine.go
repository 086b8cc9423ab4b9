// Package spice implements the toolkit's reference transistor-level
// transient simulator: the stand-in for the commercial SPICE the paper
// compares its switch-level tool against (see DESIGN.md substitutions).
//
// Every node carries its explicit grounded and floating capacitance;
// each backward-Euler timestep is solved by full Newton iteration over
// all free nodes at once. One iteration stamps the KCL residual and its
// analytic Jacobian (one device-model evaluation per MOSFET, stamp.go)
// and solves the linear system with a sparse LU whose ordering and fill
// pattern are computed once per compiled engine (sparse.go). The same
// kernel solves the DC operating point (op.go), so the virtual ground
// floating up in standby together with every output riding on it moves
// as one collective mode. Each timestep is chosen from a
// local-truncation-error estimate, as in SPICE2: short steps on edges,
// long ones where the circuit is quiet, and a fresh start at every
// source corner. A convergence-recovery ladder (recovery.go) rescues the
// steps whose Newton solve fails. The scheme reproduces the first-order physics
// the paper's comparisons rely on: gate-drive loss and body effect from
// virtual ground bounce, vector-dependent discharge current overlap,
// and RC relaxation of the virtual ground rail.
package spice

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"mtcmos/internal/mosfet"
	"mtcmos/internal/netlist"
	"mtcmos/internal/wave"
)

// Options configures a transient run.
type Options struct {
	TStop float64 // simulation end time (required)

	DTMax float64 // max timestep (default TStop/50)
	DTMin float64 // min timestep before giving up (default 1as)

	// Record lists node names to trace; nil records every node.
	Record []string
	// SampleDT decimates recording (0 = record every accepted step).
	SampleDT float64

	// InitialV seeds node voltages by name (e.g. from a logic
	// evaluation); unlisted nodes start at 0.
	InitialV map[string]float64

	// MeasureCurrent lists nodes whose net device/resistor current is
	// recorded into Result.Currents. For a source-driven node such as
	// the supply this is the current the source must deliver, so
	// integrating Currents["vdd"]*Vdd yields the drawn energy.
	MeasureCurrent []string

	// --- Robustness (see DESIGN.md §8) ---

	// Ctx cancels the run between step attempts and is its wall-clock
	// budget: a fired context returns the partial Result with the
	// failure simerr.FromContext classifies (ErrBudget on a deadline
	// or a budget cause, ErrCancelled otherwise).
	Ctx context.Context
	// MaxSteps bounds accepted timesteps (0 = unlimited); exceeding it
	// returns the partial Result with an ErrBudget failure.
	MaxSteps int
	// Recovery can disable the convergence-recovery ladder; the zero
	// value enables every rung.
	Recovery Recovery
	// Intercept, when non-nil, observes and may replace every MOS
	// current evaluation (fault injection; see internal/faultinject).
	Intercept Intercept
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.DTMax <= 0 {
		out.DTMax = out.TStop / 50
	}
	if out.DTMin <= 0 {
		out.DTMin = 1e-18
	}
	return out
}

// Result holds the traces and run statistics of a transient.
type Result struct {
	Traces map[string]*wave.Trace
	// Currents holds the measured node supply currents (positive:
	// delivered by the node's source into the devices), per
	// Options.MeasureCurrent.
	Currents   map[string]*wave.Trace
	Steps      int // accepted timesteps
	Iterations int // total Newton iterations
	Evals      int // total device evaluations
	// Recovery counts convergence-recovery ladder activity.
	Recovery RecoveryStats
}

// Current returns the measured current trace of a node, or nil.
func (r *Result) Current(node string) *wave.Trace {
	return r.Currents[netlist.CanonNode(node)]
}

// Energy integrates a measured node current against a constant rail
// voltage over the trace: the energy delivered through that node.
func (r *Result) Energy(node string, volts float64) (float64, error) {
	tr := r.Current(node)
	if tr == nil {
		return 0, fmt.Errorf("spice: node %q current not measured", node)
	}
	e := 0.0
	for i := 1; i < tr.Len(); i++ {
		e += 0.5 * (tr.V[i] + tr.V[i-1]) * (tr.T[i] - tr.T[i-1])
	}
	return e * volts, nil
}

// deviceCurrentInto sums the current flowing into node i from MOS
// devices and resistors at node voltages v (capacitors and sources
// excluded). st carries the run's interception hook; nil for
// hook-free contexts (operating-point solves).
func (e *Engine) deviceCurrentInto(i int32, v []float64, st *runState) float64 {
	into := 0.0
	for _, mi := range e.nodeMOS[i] {
		m := &e.mos[mi]
		d, srcI := e.mosCurrents(m, v, st)
		if m.d == i {
			into += d
		}
		if m.s == i {
			into += srcI
		}
	}
	for _, ri := range e.nodeRes[i] {
		r := &e.ress[ri]
		var other int32
		if r.a == i {
			other = r.b
		} else {
			other = r.a
		}
		vo := 0.0
		if other != groundIdx {
			vo = v[other]
		}
		into += (vo - v[i]) * r.g
	}
	return into
}

// Trace returns the named node's trace or nil.
func (r *Result) Trace(node string) *wave.Trace {
	return r.Traces[netlist.CanonNode(node)]
}

type mosInst struct {
	name       string
	dev        mosfet.Device
	d, g, s, b int32
}

type resInst struct {
	a, b int32
	g    float64 // conductance
}

type capInst struct { // floating capacitor between two free/fixed nodes
	a, b int32
	f    float64
}

type srcInst struct {
	node int32
	v    netlist.Vsrc
}

const groundIdx = int32(-1)

// Engine holds the compiled circuit. It is immutable after Compile and
// safe for concurrent Run and OperatingPoint calls: all per-run
// mutable state (node voltages, trial vectors, interception hooks)
// lives in a runState leased from an internal sync.Pool.
type Engine struct {
	tech  *mosfet.Tech
	names []string
	index map[string]int32

	cg    []float64 // grounded capacitance per node (explicit caps to ground)
	fixed []int32   // source index per node, -1 if free

	mos   []mosInst
	ress  []resInst
	fcaps []capInst
	srcs  []srcInst

	// adjacency: element indices touching each node (current
	// measurement, deviceCurrentInto)
	nodeMOS [][]int32
	nodeRes [][]int32

	free []int32 // free (not source-driven) nodes: the Newton unknowns
	// capNodes are the free nodes with grounded or floating capacitance:
	// the state variables whose truncation error sets the timestep.
	capNodes []int32

	pool *sync.Pool // *runState: recycled per-run solver state

	// Sparse solver context (stamp.go): the symbolic factorization and
	// stamp destinations, shared by every solve on this engine.
	sp *sparseCtx
}

// Compile builds a simulation engine from a flattened netlist.
func Compile(f *netlist.Flat, tech *mosfet.Tech) (*Engine, error) {
	if err := tech.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{tech: tech, index: map[string]int32{}, pool: new(sync.Pool)}
	idx := func(name string) int32 {
		name = netlist.CanonNode(name)
		if name == netlist.Ground {
			return groundIdx
		}
		if i, ok := e.index[name]; ok {
			return i
		}
		i := int32(len(e.names))
		e.index[name] = i
		e.names = append(e.names, name)
		return i
	}

	for _, m := range f.MOS {
		dev, err := deviceFor(tech, m)
		if err != nil {
			return nil, err
		}
		e.mos = append(e.mos, mosInst{name: strings.ToLower(m.Name), dev: dev, d: idx(m.D), g: idx(m.G), s: idx(m.S), b: idx(m.B)})
	}
	for _, r := range f.Ress {
		if r.Ohms <= 0 {
			return nil, fmt.Errorf("spice: resistor %s must be positive, got %g", r.Name, r.Ohms)
		}
		e.ress = append(e.ress, resInst{a: idx(r.A), b: idx(r.B), g: 1 / r.Ohms})
	}
	grounded := map[int32]float64{}
	for _, c := range f.Caps {
		if c.F < 0 {
			return nil, fmt.Errorf("spice: capacitor %s negative", c.Name)
		}
		a, b := idx(c.A), idx(c.B)
		switch {
		case a == groundIdx && b == groundIdx:
			// no-op
		case b == groundIdx:
			grounded[a] += c.F
		case a == groundIdx:
			grounded[b] += c.F
		default:
			e.fcaps = append(e.fcaps, capInst{a: a, b: b, f: c.F})
		}
	}
	for _, v := range f.Vs {
		if netlist.CanonNode(v.N) != netlist.Ground {
			return nil, fmt.Errorf("spice: source %s: negative terminal must be ground", v.Name)
		}
		e.srcs = append(e.srcs, srcInst{node: idx(v.P), v: v})
	}

	n := len(e.names)
	e.cg = make([]float64, n)
	e.fixed = make([]int32, n)
	for i := range e.fixed {
		e.fixed[i] = -1
	}
	for i := range e.cg {
		e.cg[i] = grounded[int32(i)]
	}
	for si, s := range e.srcs {
		if s.node == groundIdx {
			continue
		}
		if e.fixed[s.node] >= 0 {
			return nil, fmt.Errorf("spice: node %q driven by two sources", e.names[s.node])
		}
		e.fixed[s.node] = int32(si)
	}

	e.nodeMOS = make([][]int32, n)
	e.nodeRes = make([][]int32, n)
	attach := func(lists [][]int32, node int32, ei int32) {
		if node == groundIdx {
			return
		}
		// Avoid duplicate entries when an element touches a node twice.
		l := lists[node]
		if len(l) > 0 && l[len(l)-1] == ei {
			return
		}
		lists[node] = append(lists[node], ei)
	}
	for i, m := range e.mos {
		attach(e.nodeMOS, m.d, int32(i))
		attach(e.nodeMOS, m.s, int32(i))
		// Gate and bulk draw no current; no attachment needed.
	}
	for i, r := range e.ress {
		attach(e.nodeRes, r.a, int32(i))
		attach(e.nodeRes, r.b, int32(i))
	}

	capped := make([]bool, n)
	for _, c := range e.fcaps {
		if c.f > 0 {
			capped[c.a], capped[c.b] = true, true
		}
	}
	for i := int32(0); i < int32(n); i++ {
		if e.fixed[i] < 0 {
			e.free = append(e.free, i)
			if e.cg[i] > 0 || capped[i] {
				e.capNodes = append(e.capNodes, i)
			}
		}
	}
	e.sp = e.buildSparse()
	return e, nil
}

// withSourceDC returns an engine that shares e's compiled circuit —
// devices, factorization and run-state pool — but holds the source
// driving node at a constant dc volts.
func (e *Engine) withSourceDC(node string, dc float64) (*Engine, error) {
	i, ok := e.index[netlist.CanonNode(node)]
	if !ok || e.fixed[i] < 0 {
		return nil, fmt.Errorf("spice: no source drives node %q", node)
	}
	c := *e
	c.srcs = append([]srcInst(nil), e.srcs...)
	src := &c.srcs[e.fixed[i]]
	src.v = netlist.Vsrc{Name: src.v.Name, P: src.v.P, N: src.v.N, DC: dc}
	return &c, nil
}

// deviceFor maps a netlist model name onto a device archetype.
func deviceFor(tech *mosfet.Tech, m netlist.MOS) (mosfet.Device, error) {
	wl := m.WL()
	if wl <= 0 {
		return mosfet.Device{}, fmt.Errorf("spice: device %s has non-positive W/L", m.Name)
	}
	switch strings.ToLower(m.Model) {
	case "nmos":
		return mosfet.NewNMOS(tech, wl), nil
	case "pmos":
		return mosfet.NewPMOS(tech, wl), nil
	case "nmos_hvt":
		return mosfet.NewSleepNMOS(tech, wl), nil
	case "pmos_hvt":
		return mosfet.Device{Kind: mosfet.PMOS, WL: wl, Vt0: tech.VtnHigh, Tech: tech}, nil
	default:
		return mosfet.Device{}, fmt.Errorf("spice: device %s: unknown model %q", m.Name, m.Model)
	}
}

// mosCurrents returns the current flowing into the drain and source
// terminals of device m at node voltages v (ground = 0). The run's
// interception hook (fault injection), when present on st, observes
// and may replace the channel current.
func (e *Engine) mosCurrents(m *mosInst, v []float64, st *runState) (intoD, intoS float64) {
	at := func(i int32) float64 {
		if i == groundIdx {
			return 0
		}
		return v[i]
	}
	vd, vg, vs, vb := at(m.d), at(m.g), at(m.s), at(m.b)
	if m.dev.Kind == mosfet.NMOS {
		ids := m.dev.Ids(vg-vs, vd-vs, vs-vb)
		if st != nil && st.icept != nil {
			st.einfo.Device = m.name
			ids = st.icept(st.einfo, ids)
		}
		return -ids, ids
	}
	// PMOS in magnitudes: source is the high side by convention, but
	// the model's terminal-exchange symmetry makes orientation safe.
	isd := m.dev.Ids(vs-vg, vs-vd, vb-vs)
	if st != nil && st.icept != nil {
		st.einfo.Device = m.name
		isd = st.icept(st.einfo, isd)
	}
	return isd, -isd
}

// Run executes the transient and returns recorded traces. Runtime
// failures (non-convergence, numerical poison, budget exhaustion,
// cancellation) return the partial Result up to the failure time
// alongside a typed *simerr.Error; only configuration errors return a
// nil Result.
func (e *Engine) Run(opts Options) (*Result, error) {
	return e.run(opts, nil)
}

// run is Run; a non-nil final also receives every node's voltage at
// the last accepted step, for callers that record no traces.
func (e *Engine) run(opts Options, final []float64) (*Result, error) {
	o := opts.withDefaults()
	if !(o.TStop > 0) || math.IsInf(o.TStop, 1) {
		return nil, fmt.Errorf("spice: TStop must be positive and finite")
	}
	st := e.lease()
	defer e.release(st)
	st.icept = o.Intercept
	v := st.v

	for name, val := range o.InitialV {
		if i, ok := e.index[netlist.CanonNode(name)]; ok {
			v[i] = val
		}
	}
	for _, s := range e.srcs {
		if s.node != groundIdx {
			v[s.node] = s.v.At(0)
		}
	}

	// Source breakpoints: never step across a PWL or PULSE corner.
	var breaks []float64
	for _, s := range e.srcs {
		if s.v.PWL != nil {
			breaks = append(breaks, s.v.PWL.T...)
		}
		if p := s.v.Pulse; p != nil {
			period := p.Period
			oneShot := period <= 0
			if oneShot {
				period = o.TStop + 1 // single pulse: one set of corners
			}
			for t0 := p.TD; t0 <= o.TStop; t0 += period {
				breaks = append(breaks,
					t0, t0+p.TR, t0+p.TR+p.PW, t0+p.TR+p.PW+p.TF)
			}
		}
	}
	sort.Float64s(breaks)
	nextBreak := func(t float64) float64 {
		i := sort.SearchFloat64s(breaks, t*(1+1e-12)+1e-21)
		if i < len(breaks) {
			return breaks[i]
		}
		return math.Inf(1)
	}

	// Recording setup.
	rec := map[string]*wave.Trace{}
	var recNodes []int32
	addRec := func(name string) {
		name = netlist.CanonNode(name)
		i, ok := e.index[name]
		if !ok || rec[name] != nil {
			return
		}
		rec[name] = &wave.Trace{Name: name}
		recNodes = append(recNodes, i)
	}
	if o.Record == nil {
		for _, name := range e.names {
			addRec(name)
		}
	} else {
		for _, name := range o.Record {
			addRec(name)
		}
	}
	// Current measurement setup.
	curTraces := map[string]*wave.Trace{}
	var curNodes []int32
	for _, name := range o.MeasureCurrent {
		name = netlist.CanonNode(name)
		i, ok := e.index[name]
		if !ok || curTraces[name] != nil {
			continue
		}
		curTraces[name] = &wave.Trace{Name: "i(" + name + ")"}
		curNodes = append(curNodes, i)
	}

	lastSample := math.Inf(-1)
	record := func(t float64, force bool) {
		if !force && o.SampleDT > 0 && t-lastSample < o.SampleDT*0.999 {
			return
		}
		lastSample = t
		for _, i := range recNodes {
			rec[e.names[i]].Append(t, v[i])
		}
		for _, i := range curNodes {
			// Positive = delivered by the node into the devices.
			curTraces[e.names[i]].Append(t, -e.deviceCurrentInto(i, v, st))
		}
	}

	res := &Result{Traces: rec, Currents: curTraces}
	// A run that records nothing is asked only for its end state: it
	// steps without error control from the cheaper DTMax/8.
	st.errCtl = len(recNodes)+len(curNodes) > 0
	restart := o.DTMax / 8
	if st.errCtl {
		restart = math.Min(dtRestart, o.DTMax)
	}
	st.t, st.dt, st.dtPrev = 0, restart, 0
	st.res, st.record = res, record
	record(0, true)

	var err error
	for st.t < o.TStop && err == nil {
		dtTry := math.Min(st.dt, o.TStop-st.t)
		nb := nextBreak(st.t)
		if nb > st.t && nb-st.t < dtTry {
			dtTry = nb - st.t
		}
		err = e.advance(&o, st, dtTry)
		if err == nil && nextBreak(st.t) != nb {
			// On a source corner the inputs' slope jumps: the history
			// no longer predicts the next step, so start over small.
			st.dt, st.dtPrev = restart, 0
		}
	}
	if final != nil {
		copy(final, v)
	}
	return res, err
}

// lease returns a recycled (or fresh) per-run state with zeroed
// voltage vectors and a sparse Newton workspace.
func (e *Engine) lease() *runState {
	if x := e.pool.Get(); x != nil {
		st := x.(*runState)
		for i := range st.v {
			st.v[i], st.vprev[i], st.vtrial[i] = 0, 0, 0
		}
		return st
	}
	n := len(e.names)
	return &runState{
		v:      make([]float64, n),
		vprev:  make([]float64, n),
		vtrial: make([]float64, n),
		w:      e.sp.newWork(),
	}
}

// release drops the run-scoped references (the Result and traces
// escape to the caller) and recycles the solver state.
func (e *Engine) release(st *runState) {
	st.res, st.record, st.icept = nil, nil, nil
	st.einfo = EvalInfo{}
	e.pool.Put(st)
}

// Simulate compiles and runs a flattened netlist in one call. Like
// Run, it returns the partial Result alongside any runtime failure.
// Callers simulating the same deck repeatedly should Compile once and
// reuse the Engine across (possibly concurrent) Runs.
func Simulate(f *netlist.Flat, tech *mosfet.Tech, opts Options) (*Result, error) {
	e, err := Compile(f, tech)
	if err != nil {
		return nil, err
	}
	return e.Run(opts)
}
