package core

import (
	"fmt"
	"math"
	"sync"

	"mtcmos/internal/circuit"
	"mtcmos/internal/mosfet"
	"mtcmos/internal/wave"
)

// Compiled is a circuit+technology pair prepared for repeated
// switch-level runs: the topological order, equivalent-inverter
// parameters, pullup currents, and sleep resistances are derived once,
// and per-run mutable state comes from an internal sync.Pool.
//
// A Compiled value is immutable after Compile and safe for concurrent
// Run/RunWL/RunDomains calls from many goroutines — that is what the
// sweep executor (internal/sched) fans out over. It snapshots the
// circuit's domain configuration (SleepWL, VGndCap) at compile time;
// later mutation of those fields on the Circuit does NOT affect runs.
// Use RunWL/RunDomains to vary the sleep sizing across runs instead of
// mutating the circuit. The gate-graph structure itself (gates, nets,
// loads) must not be modified while runs are in flight.
type Compiled struct {
	c    *circuit.Circuit
	tech *mosfet.Tech

	doms []circuit.Domain // compile-time domain snapshot
	rs   []float64        // sleep resistance per domain (0 = ideal ground)

	eq    []circuit.EquivGate
	ipu   []float64       // constant pullup current per gate
	order []*circuit.Gate // topological order, for the initial evaluation

	kRampN float64 // ramp-averaged NMOS drive factor (InputSlope model)
	kRampP float64 // ramp-averaged PMOS drive factor

	pool sync.Pool // *sim
}

// Compile levelizes and characterizes a circuit for run-many use. It
// performs every check and derivation Simulate used to repeat per run.
func Compile(c *circuit.Circuit) (*Compiled, error) {
	if err := c.Check(); err != nil {
		return nil, err
	}
	order, err := c.Topo()
	if err != nil {
		return nil, err
	}
	tech := c.Tech
	if tech == nil {
		return nil, fmt.Errorf("core: circuit %s has no technology", c.Name)
	}
	if err := tech.Validate(); err != nil {
		return nil, err
	}
	rs, err := c.DomainResistances()
	if err != nil {
		return nil, err
	}
	doms := c.Domains()
	for _, g := range c.Gates {
		if g.Domain < 0 || g.Domain >= len(doms) {
			return nil, fmt.Errorf("core: gate %s assigned to unknown domain %d", g.Name, g.Domain)
		}
	}

	cp := &Compiled{
		c: c, tech: tech,
		doms: doms, rs: rs,
		eq:     c.Equiv(),
		order:  order,
		kRampN: rampFactor(tech.Vdd, tech.Vtn, tech.Alpha),
		kRampP: rampFactor(tech.Vdd, -tech.Vtp, tech.Alpha),
	}
	cp.ipu = make([]float64, len(c.Gates))
	vovP := tech.Vdd + tech.Vtp // Vtp is negative: Vdd - |Vtp|
	if vovP > 0 {
		scale := 0.5 * math.Pow(tech.Vdd, 2-tech.Alpha) * math.Pow(vovP, tech.Alpha)
		for i := range c.Gates {
			cp.ipu[i] = cp.eq[i].BetaP * scale
		}
	}
	return cp, nil
}

// Circuit returns the circuit this engine was compiled from.
func (cp *Compiled) Circuit() *circuit.Circuit { return cp.c }

// Domains returns a copy of the compile-time domain snapshot; the
// canonical starting point for RunDomains overrides.
func (cp *Compiled) Domains() []circuit.Domain {
	out := make([]circuit.Domain, len(cp.doms))
	copy(out, cp.doms)
	return out
}

// Run simulates one input-vector transition with the compile-time
// domain configuration. Safe to call concurrently.
func (cp *Compiled) Run(stim circuit.Stimulus, opts Options) (*Result, error) {
	return cp.run(cp.doms, cp.rs, stim, opts)
}

// RunWL is Run with domain 0's sleep W/L overridden (0 = plain CMOS);
// other domains keep their compiled configuration. This replaces the
// mutate-SleepWL-and-restore idiom of the sizing sweeps.
func (cp *Compiled) RunWL(wl float64, stim circuit.Stimulus, opts Options) (*Result, error) {
	if len(cp.doms) == 1 && wl == cp.doms[0].SleepWL {
		return cp.run(cp.doms, cp.rs, stim, opts)
	}
	doms := cp.Domains()
	doms[0].SleepWL = wl
	return cp.RunDomains(doms, stim, opts)
}

// RunDomains is Run with a full per-domain configuration override
// (index-aligned with the compiled domains; the slice length must
// match). Sleep resistances are re-derived from the override.
func (cp *Compiled) RunDomains(doms []circuit.Domain, stim circuit.Stimulus, opts Options) (*Result, error) {
	if len(doms) != len(cp.doms) {
		return nil, fmt.Errorf("core: domain override has %d domains, compiled circuit has %d", len(doms), len(cp.doms))
	}
	rs := make([]float64, len(doms))
	for i, d := range doms {
		if d.SleepWL <= 0 {
			continue
		}
		r, err := mosfet.SleepResistance(cp.tech, d.SleepWL)
		if err != nil {
			return nil, err
		}
		rs[i] = r
	}
	return cp.run(doms, rs, stim, opts)
}

// run leases a simulator from the pool, primes it for this transition,
// and executes the event loop. The returned Result shares nothing with
// the pooled state.
func (cp *Compiled) run(doms []circuit.Domain, rs []float64, stim circuit.Stimulus, opts Options) (*Result, error) {
	o := opts.withDefaults()
	s := cp.lease()
	defer cp.release(s)
	s.o = o
	s.doms, s.rs = doms, rs
	s.anyRelax = false
	for _, d := range doms {
		if d.SleepWL > 0 && d.VGndCap > 0 {
			s.anyRelax = true
		}
	}
	for di := range s.vx {
		s.vx[di], s.vxSlope[di] = 0, 0
		s.memo[di].ok = false
	}

	for _, in := range cp.c.Inputs {
		s.logic[in.ID] = stim.Old[in.Name]
	}
	circuit.EvalNets(cp.order, s.logic)
	tech := cp.tech
	for i, g := range cp.c.Gates {
		lv := s.logic[g.Out.ID]
		v := 0.0
		if lv {
			v = tech.Vdd
		}
		s.st[i] = gateState{v: v, d: idle, logic: lv}
	}
	clear(s.active)

	s.res = &Result{
		TEdge:   stim.TEdge + stim.TRise/2,
		Domains: make([]DomainResult, len(doms)),
	}
	if o.RecordActivity {
		s.res.Activity = make([][]Interval, len(cp.c.Gates))
		for i := range s.fallStart {
			s.fallStart[i] = -1
			s.prevDir[i] = idle
		}
	}
	for _, name := range o.TraceNets {
		if n := cp.c.FindNet(name); n != nil && s.waves[n.ID] == nil {
			s.waves[n.ID] = &wave.PWL{}
		}
	}
	for i, g := range cp.c.Gates {
		s.trace(g.Out.ID, 0, s.st[i].v)
	}
	for _, in := range cp.c.Inputs {
		v := 0.0
		if s.logic[in.ID] {
			v = tech.Vdd
		}
		s.trace(in.ID, 0, v)
	}
	for di := range doms {
		for _, w := range []*wave.PWL{&s.vgnd[di], &s.isleep[di]} {
			w.T, w.V = w.T[:0], w.V[:0]
			w.Append(0, 0)
		}
	}

	// A failed run returns its partial Result alongside the error; it
	// is useful for diagnosing oscillations.
	err := s.run(stim)
	s.collect(err == nil)
	return s.res, err
}

// lease returns a simulator bound to this engine, sized for its
// circuit; run primes it for each transition.
func (cp *Compiled) lease() *sim {
	if v := cp.pool.Get(); v != nil {
		return v.(*sim)
	}
	n, nn, nd := len(cp.c.Gates), len(cp.c.Nets()), len(cp.doms)
	s := &sim{
		c: cp.c, tech: cp.tech,
		eq: cp.eq, ipu: cp.ipu,
		kRampN: cp.kRampN, kRampP: cp.kRampP,
		st:        make([]gateState, n),
		active:    make([]uint64, (n+63)/64),
		logic:     make([]bool, nn),
		waves:     make([]*wave.PWL, nn),
		ncr:       make([]int, nn),
		in:        make([]bool, circuit.MaxArity),
		vx:        make([]float64, nd),
		vxSlope:   make([]float64, nd),
		cur:       make([]float64, n),
		memo:      make([]eqMemo, nd),
		vgnd:      make([]wave.PWL, nd),
		isleep:    make([]wave.PWL, nd),
		fallStart: make([]float64, n),
		prevDir:   make([]dir, n),
	}
	for di := range s.memo {
		s.memo[di].cur = make([]float64, n)
	}
	return s
}

// release detaches run-scoped references (the Result and its traced
// waveforms escape to the caller) and returns the scratch simulator to
// the pool.
func (cp *Compiled) release(s *sim) {
	s.res = nil
	clear(s.waves)
	clear(s.ncr)
	s.xs = s.xs[:0]
	s.doms, s.rs = nil, nil
	s.o = Options{}
	cp.pool.Put(s)
}
