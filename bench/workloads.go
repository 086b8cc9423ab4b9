package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"

	"mtcmos"
	"mtcmos/internal/circuit"
	"mtcmos/internal/circuits"
	"mtcmos/internal/core"
	"mtcmos/internal/mosfet"
	"mtcmos/internal/netlist"
	"mtcmos/internal/sca"
	"mtcmos/internal/sizing"
	"mtcmos/internal/spice"
)

// workloads are the benchmark's traffic mixes, in BENCHMARK.json order.
// README.md says why each was chosen.
var workloads = []workload{
	{name: "vbs_sweep", setup: vbsSweep},
	{name: "spice_transient", setup: spiceTransient},
	{name: "size_standby", setup: sizeStandby},
	{name: "paper", clients: 1, setup: paper},
}

// knownFailures runs the ops that fail at the seed commit. They are
// kept out of the timed workloads, whose ops must all pass, and are
// not listed in BENCHMARK.json; run them with -workload known_failures.
var knownFailures = workload{name: "known_failures", clients: 1, setup: knownFailing}

func findWorkload(name string) (workload, bool) {
	for _, w := range append(workloads, knownFailures) {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	tEdge     = 1e-9
	tRise     = 50e-12
	spiceStop = 20e-9 // reference transient horizon, as in the adder experiments
	budget    = 0.05  // the paper's 5% delay-degradation target
)

func stimulus(from, to map[string]bool) circuit.Stimulus {
	return circuit.Stimulus{Old: from, New: to, TEdge: tEdge, TRise: tRise}
}

func outputNames(c *circuit.Circuit) []string {
	var out []string
	for _, n := range c.Outputs() {
		out = append(out, n.Name)
	}
	return out
}

// vbsSweep is Fig. 14 and Sec. 6.2 traffic on the switch-level engine:
// each of the 4,096 3-bit adder transitions swept over four sleep
// sizes, plus 8,192 random 8x8 multiplier transitions drawn from the
// seed, all on engines compiled once. An adder op is one transition's
// sweep rather than one run, so that the median op is not a 30 µs call
// whose time is mostly the host's and the garbage collector's.
func vbsSweep(seed int64, small bool) ([]op, error) {
	t7, t3 := mosfet.Tech07(), mosfet.Tech03()
	ad := circuits.RippleCarryAdder(&t7, 3, 20e-15)
	adCP, err := core.Compile(ad.Circuit)
	if err != nil {
		return nil, err
	}
	m := circuits.CarrySaveMultiplier(&t3, 8, 15e-15)
	mCP, err := core.Compile(m.Circuit)
	if err != nil {
		return nil, err
	}
	adOuts := outputNames(ad.Circuit)
	// The paper's 4,096 ordered pairs of 6-bit (a, b) operands, carry-in low.
	type pair struct {
		oa, ob, na, nb uint64
		st             circuit.Stimulus
	}
	pairs := make([]pair, 4096)
	for p := range pairs {
		o, n := uint64(p>>6), uint64(p&63)
		pairs[p] = pair{o & 7, o >> 3, n & 7, n >> 3,
			stimulus(ad.Inputs(o&7, o>>3, false), ad.Inputs(n&7, n>>3, false))}
	}
	rng := rand.New(rand.NewSource(seed))
	nPairs, nMult := len(pairs), 8192
	if small {
		nPairs, nMult = 2, 2
	}
	ops := make([]op, 0, nPairs+nMult)
	// The multiplier runs are the long ops; they go out first so a round
	// does not end waiting on one.
	for i := 0; i < nMult; i++ {
		ox, oy, nx, ny := rng.Uint64()&255, rng.Uint64()&255, rng.Uint64()&255, rng.Uint64()&255
		ops = append(ops, vbsOp(fmt.Sprintf("mult8 %d*%d->%d*%d", ox, oy, nx, ny),
			mCP, []float64{170}, stimulus(m.Inputs(ox, oy), m.Inputs(nx, ny)), m.ProductNets,
			func(f map[string]bool) bool { return m.Result(f) == nx*ny }))
	}
	for k := 0; k < nPairs; k++ {
		p := pairs[k]
		if small {
			p = pairs[rng.Intn(len(pairs))]
		}
		ops = append(ops, vbsOp(fmt.Sprintf("adder3 %d+%d->%d+%d", p.oa, p.ob, p.na, p.nb),
			adCP, []float64{0, 5, 10, 20}, p.st, adOuts, func(f map[string]bool) bool {
				s, cout := ad.Result(f)
				return s == (p.na+p.nb)&7 && cout == (p.na+p.nb > 7)
			}))
	}
	return ops, nil
}

// vbsOp runs one transition at each sleep size; every run's settled
// outputs must match the arithmetic the circuit implements.
func vbsOp(name string, cp *core.Compiled, wls []float64, st circuit.Stimulus, outs []string, want func(map[string]bool) bool) op {
	return op{name: name, run: func(x *opCtx) error {
		res := make([]*core.Result, len(wls))
		for i, wl := range wls {
			var err error
			res[i], err = timed(x, "core.run", func() (*core.Result, error) { return cp.RunWL(wl, st, core.Options{}) })
			if err != nil {
				return fmt.Errorf("W/L %g: %w", wl, err)
			}
		}
		x.stop()
		for i, r := range res {
			x.tally.CoreRuns++
			x.tally.CoreEvents += r.Events
			d, _, _ := r.MaxDelay(outs)
			x.digest += fmt.Sprintf("%d %.9g;", r.Events, d)
			if !want(r.Final) {
				return fmt.Errorf("W/L %g: settled outputs differ from the arithmetic result", wls[i])
			}
		}
		return nil
	}}
}

// spiceTransient is the Fig. 14 reference-overlay traffic: 50 ops,
// each one reference transient (spice.Run): 24 adder transitions at
// W/L 0 and 10, and the 4x4 multiplier's vector A at W/L 0 and 40.
// Each adder transition's two runs give its reference degradation,
// which spice.deg_err_pp sets against the switch-level one. The round
// is kept short enough that a run repeats it at least three times, so
// that each op's latency is a median.
//
// The adder transitions are picked the way Fig. 14 picks its overlay:
// every S2-toggling pair sorted by switch-level degradation, sampled
// evenly across that order. They are not drawn from the seed, because
// one transition costs the reference engine from 0.12 s to 1.5 s
// (coefficient of variation 0.8 over a 120-pair sample): a seeded draw
// would vary the round's total by 10% or more from seed to seed.
// The workload has no seeded inputs.
func spiceTransient(_ int64, small bool) ([]op, error) {
	t7, t3 := mosfet.Tech07(), mosfet.Tech03()
	ad := circuits.RippleCarryAdder(&t7, 3, 20e-15)
	vbs, err := core.Compile(ad.Circuit)
	if err != nil {
		return nil, err
	}
	adOuts := outputNames(ad.Circuit)
	type cand struct {
		oa, ob, na, nb uint64
		deg            float64
	}
	var cands []cand
	for p := 0; p < 4096; p++ {
		oa, ob, na, nb := uint64(p>>6&7), uint64(p>>9), uint64(p&7), uint64(p>>3&7)
		if (oa+ob)>>2&1 == (na+nb)>>2&1 {
			continue // S2 does not toggle
		}
		st := stimulus(ad.Inputs(oa, ob, false), ad.Inputs(na, nb, false))
		deg, err := vbsDegradation(vbs, st, 10, adOuts)
		if err != nil {
			return nil, err
		}
		cands = append(cands, cand{oa, ob, na, nb, deg})
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].deg > cands[j].deg })
	picks := make([]cand, 24)
	for k := range picks {
		picks[k] = cands[k*(len(cands)-1)/(len(picks)-1)]
	}
	if small {
		picks = picks[len(picks)/2 : len(picks)/2+1]
	}
	var ops []op
	if !small {
		// The multiplier's paper vector A (Fig. 7, scaled to 4 bits),
		// 2 to 3 s a run, holds the long ops and goes out first, so a
		// round does not end waiting on one. (Its reverse cannot be
		// used: the reference engine fails at t=0 from A's end state,
		// see knownFailing.)
		m := circuits.CarrySaveMultiplier(&t3, 4, 15e-15)
		newMult := func() *circuit.Circuit { return circuits.CarrySaveMultiplier(&t3, 4, 15e-15).Circuit }
		st := stimulus(m.Inputs(0, 0), m.Inputs(15, 9))
		for _, wl := range []float64{0, 40} {
			ops = append(ops, refOp(fmt.Sprintf("mult4 0*0->15*9 wl=%g", wl), newMult, m.ProductNets, st, wl, nil))
		}
	}
	newAdder := func() *circuit.Circuit { return circuits.RippleCarryAdder(&t7, 3, 20e-15).Circuit }
	for _, c := range picks {
		name := fmt.Sprintf("adder3 %d+%d->%d+%d", c.oa, c.ob, c.na, c.nb)
		st := stimulus(ad.Inputs(c.oa, c.ob, false), ad.Inputs(c.na, c.nb, false))
		for _, wl := range []float64{0, 10} {
			ops = append(ops, refOp(fmt.Sprintf("%s wl=%g", name, wl), newAdder, adOuts, st, wl,
				&degRef{transition: name, wl: wl, vbs: c.deg}))
		}
	}
	return ops, nil
}

// refOp runs the reference engine at wl on a private circuit
// (spice.Run reads the circuit's SleepWL) and checks the transient.
func refOp(name string, build func() *circuit.Circuit, outs []string, st circuit.Stimulus, wl float64, deg *degRef) op {
	return op{name: name, deg: deg, run: func(x *opCtx) error {
		c, _ := timed(x, "circuit.build", func() (*circuit.Circuit, error) { return build(), nil })
		c.SleepWL = wl
		rr, err := spiceRun(x, c, st)
		if err != nil {
			return err
		}
		x.stop()
		x.tally.SpiceTransients++
		x.tally.SpiceSteps += rr.Steps
		x.tally.SpiceEvals += rr.Evals
		if x.delay, err = checkTransient(c, rr, st, outs); err != nil {
			return err
		}
		x.digest = fmt.Sprintf("%.9g %d %d", x.delay, rr.Steps, rr.Evals)
		return nil
	}}
}

// spiceRun is spice.Run. Traced, it takes the same public steps
// spice.Run takes, one span each, so the transient's cost can be told
// from the per-call expand, flatten and compile; bench_test.go checks
// that both paths give the same results.
func spiceRun(x *opCtx, c *circuit.Circuit, st circuit.Stimulus) (*spice.RunResult, error) {
	opts := spice.Options{TStop: spiceStop}
	if x.trace == nil {
		return spice.Run(c, st, spice.RunOptions{Options: opts})
	}
	vals, err := timed(x, "circuit.evaluate", func() (map[string]bool, error) { return c.Evaluate(st.Old) })
	if err != nil {
		return nil, err
	}
	opts.InitialV = make(map[string]float64, len(vals))
	for name, b := range vals {
		opts.InitialV[netlist.CanonNode(name)] = 0
		if b {
			opts.InitialV[netlist.CanonNode(name)] = c.Tech.Vdd
		}
	}
	for _, n := range c.Outputs() {
		opts.Record = append(opts.Record, netlist.CanonNode(n.Name))
	}
	for _, n := range c.Inputs {
		opts.Record = append(opts.Record, netlist.CanonNode(n.Name))
	}
	if c.SleepWL > 0 {
		opts.Record = append(opts.Record, circuit.NodeVGnd)
	}
	nl, err := timed(x, "circuit.expand", func() (*netlist.Netlist, error) { return c.Netlist(st) })
	if err != nil {
		return nil, err
	}
	flat, err := timed(x, "netlist.flatten", nl.Flatten)
	if err != nil {
		return nil, err
	}
	e, err := timed(x, "spice.compile", func() (*spice.Engine, error) { return spice.Compile(flat, c.Tech) })
	if err != nil {
		return nil, err
	}
	res, err := timed(x, "spice.transient", func() (*spice.Result, error) { return e.Run(opts) })
	if res == nil {
		return nil, err
	}
	return &spice.RunResult{Result: res, Stim: st, Vdd: c.Tech.Vdd}, err
}

// checkTransient checks a reference transient against the logic: every
// output ends within 10% of Vdd of the rail Evaluate(New) gives, and
// every toggling output crosses Vdd/2 after the edge. It returns the
// settling delay, the last such crossing over the toggling outputs.
func checkTransient(c *circuit.Circuit, rr *spice.RunResult, st circuit.Stimulus, outs []string) (float64, error) {
	oldV, err := c.Evaluate(st.Old)
	if err != nil {
		return 0, err
	}
	newV, err := c.Evaluate(st.New)
	if err != nil {
		return 0, err
	}
	vdd, from := c.Tech.Vdd, st.TEdge+st.TRise/2
	worst, toggled := 0.0, false
	for _, n := range outs {
		tr := rr.OutTrace(n)
		if tr == nil {
			return 0, fmt.Errorf("output %s was not recorded", n)
		}
		want := 0.0
		if newV[n] {
			want = vdd
		}
		if v := tr.Final(); math.Abs(v-want) > 0.1*vdd {
			return 0, fmt.Errorf("output %s ends at %.3f V, want %.3f V", n, v, want)
		}
		if oldV[n] == newV[n] {
			continue
		}
		last, found := 0.0, false
		for at := from; ; {
			tc, ok := tr.Crossing(vdd/2, at, 0)
			if !ok {
				break
			}
			last, found, at = tc, true, tc+1e-13
		}
		if !found {
			return 0, fmt.Errorf("output %s toggles but never crosses Vdd/2", n)
		}
		toggled, worst = true, max(worst, last-from)
	}
	if !toggled {
		return 0, errors.New("no output toggled")
	}
	return worst, nil
}

// vbsDegradation is the switch-level % degradation at wl against plain
// CMOS, the quantity Fig. 14 plots.
func vbsDegradation(cp *core.Compiled, st circuit.Stimulus, wl float64, outs []string) (float64, error) {
	var d [2]float64
	for k, w := range []float64{0, wl} {
		res, err := cp.RunWL(w, st, core.Options{})
		if err != nil {
			return 0, err
		}
		var ok bool
		if d[k], _, ok = res.MaxDelay(outs); !ok {
			return 0, errors.New("switch-level: no output toggled")
		}
	}
	return 100 * (d[1] - d[0]) / d[0], nil
}

// benchCircuit is a generated circuit with its named transitions and a
// generator of random ones, built the way mtsize builds them.
type benchCircuit struct {
	c      *circuit.Circuit
	cfg    sizing.Config
	named  []sizing.Transition
	random func(*rand.Rand) sizing.Transition
}

func selectInputs(bits int, sel bool, a, b uint64) map[string]bool {
	in := map[string]bool{"sel": sel}
	for i := 0; i < bits; i++ {
		in[fmt.Sprintf("a%d", i)] = a>>uint(i)&1 == 1
		in[fmt.Sprintf("b%d", i)] = b>>uint(i)&1 == 1
	}
	return in
}

func newCircuit(kind string, bits int) benchCircuit {
	t7, t3 := mosfet.Tech07(), mosfet.Tech03()
	mask := uint64(1)<<uint(bits) - 1
	tr := func(from, to map[string]bool, label string) sizing.Transition {
		return sizing.Transition{Old: from, New: to, Label: label}
	}
	switch kind {
	case "tree":
		c := circuits.InverterTree(&t7, 3, 3, 50e-15)
		lo, hi := map[string]bool{"in": false}, map[string]bool{"in": true}
		return benchCircuit{c: c, named: []sizing.Transition{tr(lo, hi, "0->1"), tr(hi, lo, "1->0")},
			random: func(rng *rand.Rand) sizing.Transition {
				return tr(map[string]bool{"in": rng.Intn(2) == 1}, map[string]bool{"in": rng.Intn(2) == 1}, "rand")
			}}
	case "adder":
		ad := circuits.RippleCarryAdder(&t7, bits, 20e-15)
		in := func(a, b uint64) map[string]bool { return ad.Inputs(a, b, false) }
		return benchCircuit{c: ad.Circuit,
			named: []sizing.Transition{tr(in(0, 0), in(mask, 1), "carry ripple"), tr(in(0, 0), in(mask, mask), "all on")},
			random: func(rng *rand.Rand) sizing.Transition {
				return tr(in(rng.Uint64()&mask, rng.Uint64()&mask), in(rng.Uint64()&mask, rng.Uint64()&mask), "rand")
			}}
	case "mult":
		m := circuits.CarrySaveMultiplier(&t3, bits, 15e-15)
		y := (1 | 1<<uint(bits-1)) & mask
		return benchCircuit{c: m.Circuit, cfg: sizing.Config{Outputs: m.ProductNets},
			named: []sizing.Transition{tr(m.Inputs(0, 0), m.Inputs(mask, y), "A"), tr(m.Inputs(mask>>1, y), m.Inputs(mask, y), "B")},
			random: func(rng *rand.Rand) sizing.Transition {
				return tr(m.Inputs(rng.Uint64()&mask, rng.Uint64()&mask), m.Inputs(rng.Uint64()&mask, rng.Uint64()&mask), "rand")
			}}
	case "select":
		c := circuits.SelectTree(&t7, bits, 20e-15)
		in := func(sel bool, a, b uint64) map[string]bool { return selectInputs(bits, sel, a, b) }
		return benchCircuit{c: c,
			named: []sizing.Transition{tr(in(false, 0, 0), in(true, mask, mask), "switch branch"),
				tr(in(false, mask, mask), in(false, 0, mask), "A falls")},
			random: func(rng *rand.Rand) sizing.Transition {
				return tr(in(rng.Intn(2) == 1, rng.Uint64()&mask, rng.Uint64()&mask),
					in(rng.Intn(2) == 1, rng.Uint64()&mask, rng.Uint64()&mask), "rand")
			}}
	}
	panic("bench: unknown circuit kind " + kind)
}

// sizeStandby is mtsize traffic from closed-loop clients: each request
// sizes one circuit for the 5% budget over its named and 8 random
// transitions, then solves the sized circuit's standby operating point.
// A round sends 100 requests, 20 on each of five circuits, with request
// seeds drawn from the seed; with an odd number of circuits the median
// and 90th-percentile latencies fall inside one circuit's requests, not
// between two.
func sizeStandby(seed int64, small bool) ([]op, error) {
	rng := rand.New(rand.NewSource(seed))
	n := 20
	if small {
		n = 1
	}
	var ops []op
	// Costliest circuit first, so a round does not end on a long request.
	for _, k := range []struct {
		kind string
		bits int
	}{{"mult", 4}, {"select", 8}, {"adder", 4}, {"adder", 3}, {"tree", 0}} {
		for i := 0; i < n; i++ {
			ops = append(ops, sizeOp(k.kind, k.bits, rng.Int63(), requestStates))
		}
	}
	return ops, nil
}

// requestStates are the input states a request solves standby at: both
// states of the first named transition, except on the multiplier, whose
// vector-A end state is a known failure (see knownFailing); there it is
// vector B's start state.
func requestStates(b benchCircuit) []map[string]bool {
	if b.cfg.Outputs != nil {
		return []map[string]bool{b.named[1].Old}
	}
	return []map[string]bool{b.named[0].Old, b.named[0].New}
}

func sizeOp(kind string, bits int, seed int64, states func(benchCircuit) []map[string]bool) op {
	return op{name: fmt.Sprintf("size %s%d seed=%d", kind, bits, seed), run: func(x *opCtx) error {
		b, _ := timed(x, "circuit.build", func() (benchCircuit, error) { return newCircuit(kind, bits), nil })
		trs := append([]sizing.Transition(nil), b.named...)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 8; i++ {
			trs = append(trs, b.random(rng))
		}
		cfg := b.cfg
		cfg.Workers = 1
		dt, err := timed(x, "sizing.delay_target", func() (*sizing.DelayTargetResult, error) {
			return sizing.DelayTarget(b.c, cfg, trs, budget, 0)
		})
		if err != nil {
			return err
		}
		x.tally.SizingSims += dt.Evals
		b.c.SleepWL = dt.WL
		var sb []*spice.StandbyResult
		for _, in := range states(b) {
			s, err := timed(x, "spice.standby", func() (*spice.StandbyResult, error) { return spice.Standby(b.c, in) })
			x.tally.SpiceStandbys++
			if err != nil {
				return fmt.Errorf("standby at W/L %.4g: %w", dt.WL, err)
			}
			sb = append(sb, s)
		}
		x.stop()
		x.digest = fmt.Sprintf("%.9g %.9g %d", dt.WL, dt.Degradation, dt.Evals)
		if dt.Degraded || dt.Degradation > budget {
			return fmt.Errorf("sizing missed the target: degradation %.4f, degraded %v", dt.Degradation, dt.Degraded)
		}
		for _, s := range sb {
			x.digest += fmt.Sprintf(" %.9g %.9g", s.VGndFloat, s.Reduction)
			if !(s.Reduction > 1) || !(s.VGndFloat > 0 && s.VGndFloat <= b.c.Tech.Vdd) {
				return fmt.Errorf("standby: reduction %.3g, virtual ground %.3g V", s.Reduction, s.VGndFloat)
			}
		}
		return nil
	}}
}

// refineOp is the refined static sleep bound of one freshly built
// circuit (sizing.StaticLevel with Refine), checked against simulation:
// SimultaneousWidth over the given transitions ≤ Refined ≤ static level
// bound ≤ SumOfWidths. The refined bound assumes settled inputs, so a
// glitching edge can exceed it (see knownFailing).
func refineOp(kind string, bits int, excl sca.ExclConfig, trs func(benchCircuit) []sizing.Transition) op {
	return op{name: fmt.Sprintf("%s%d", kind, bits), run: func(x *opCtx) error {
		b, _ := timed(x, "circuit.build", func() (benchCircuit, error) { return newCircuit(kind, bits), nil })
		st, err := timed(x, "sca.refine", func() (*sizing.StaticLevelResult, error) {
			return sizing.StaticLevel(b.c, sizing.Refine(excl))
		})
		x.stop()
		if err != nil {
			return err
		}
		sim, err := sizing.SimultaneousWidth(b.c, b.cfg, trs(b))
		if err != nil {
			return err
		}
		x.digest = fmt.Sprintf("%.9g %.9g %.9g %.9g", sim, st.Refined, st.WL, st.SumOfWidths)
		if !(sim <= st.Refined && st.Refined <= st.WL && st.WL <= st.SumOfWidths) {
			return fmt.Errorf("bound ladder violated: simulated %.4g, refined %.4g, static %.4g, sum %.4g",
				sim, st.Refined, st.WL, st.SumOfWidths)
		}
		return nil
	}}
}

// paper is mtexp -e all: every registered experiment once, in order,
// with the default configuration on one worker per CPU. The whole
// command is one op, since that is what its user waits for; each
// experiment is a span of it. It has no seeded inputs.
func paper(_ int64, small bool) ([]op, error) {
	workers := runtime.GOMAXPROCS(0)
	var ids []string
	for _, e := range mtcmos.Experiments() {
		if !small || e.ID == "fig7" || e.ID == "table1" {
			ids = append(ids, e.ID)
		}
	}
	return []op{{name: "mtexp -e all", run: func(x *opCtx) error {
		outs := make([]*mtcmos.ExperimentOutput, len(ids))
		for i, id := range ids {
			out, err := timed(x, "experiments."+id, func() (*mtcmos.ExperimentOutput, error) {
				return mtcmos.RunExperiment(id, mtcmos.ExperimentConfig{Workers: workers})
			})
			if err != nil {
				return fmt.Errorf("%s: %w", id, err)
			}
			outs[i] = out
		}
		x.stop()
		for i, out := range outs {
			x.digest += fmt.Sprintf("%s %d %d;", ids[i], len(out.Tables), len(out.Series))
			if len(out.Tables)+len(out.Series) == 0 {
				return fmt.Errorf("%s: no table or series", ids[i])
			}
		}
		return nil
	}}}, nil
}

// knownFailing holds the two failures of the seed commit:
//   - an mtsize-style request whose standby, on the sized 4x4
//     multiplier at vector A's end state (x=1111, y=1001), exhausts
//     the reference engine's recovery ladder (a transient starting
//     from that state fails the same way);
//   - the refined sleep bound of the 6-bit select tree, which the edge
//     sel 0→1, a 63→0, b 63→0 exceeds: it glitches to a simulated width
//     of 98 against a refined bound of 96 (DESIGN.md §11).
func knownFailing(seed int64, _ bool) ([]op, error) {
	return []op{
		sizeOp("mult", 4, seed, func(b benchCircuit) []map[string]bool { return []map[string]bool{b.named[0].New} }),
		refineOp("select", 6, sca.ExclConfig{Workers: runtime.GOMAXPROCS(0)},
			func(benchCircuit) []sizing.Transition {
				return []sizing.Transition{{Old: selectInputs(6, false, 63, 63), New: selectInputs(6, true, 0, 0)}}
			}),
	}, nil
}
