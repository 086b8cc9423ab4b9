package experiments

import (
	"fmt"

	"mtcmos/internal/circuit"
	"mtcmos/internal/circuits"
	"mtcmos/internal/core"
	"mtcmos/internal/report"
	"mtcmos/internal/sched"
	"mtcmos/internal/sizing"
	"mtcmos/internal/units"
	"mtcmos/internal/vectors"
)

// The paper's two 8x8 multiplier vectors (section 4 / Fig. 7):
//
//	A (larger currents):  X: 00->FF, Y: 00->81
//	B (smaller currents): X: 7F->FF, Y: 81->81
//
// A flips every partial-product row at once; B ripples. For an N-bit
// instance the constants are scaled to the same bit patterns.
func vectorA(n int) (ox, oy, nx, ny uint64) {
	mask := uint64(1)<<uint(n) - 1
	return 0, 0, mask, (1 | 1<<uint(n-1)) & mask
}

func vectorB(n int) (ox, oy, nx, ny uint64) {
	mask := uint64(1)<<uint(n) - 1
	y := (1 | 1<<uint(n-1)) & mask
	return mask >> 1, y, mask, y
}

func multStim(m *circuits.Multiplier, ox, oy, nx, ny uint64) circuit.Stimulus {
	return circuit.Stimulus{
		Old:   m.Inputs(ox, oy),
		New:   m.Inputs(nx, ny),
		TEdge: 1e-9, TRise: 50e-12,
	}
}

// multDelay is the worst settling delay over the product bits.
func multDelay(cfg Config, m *circuits.Multiplier, stim circuit.Stimulus) (float64, *core.Result, error) {
	res, err := core.Simulate(m.Circuit, stim, cfg.simOpts(core.Options{}))
	if err != nil {
		return 0, nil, err
	}
	d, _, ok := res.MaxDelay(m.ProductNets)
	if !ok {
		return 0, res, fmt.Errorf("experiments: no product bit toggled")
	}
	return d, res, nil
}

// fig7WLs sweeps the paper's Fig. 7 x-axis range.
var fig7WLs = []float64{20, 40, 60, 90, 130, 170, 230, 300, 400, 500}

// Fig7 regenerates Fig. 7: multiplier delay vs sleep W/L for vectors A
// and B, showing the strong input-vector dependency of MTCMOS delay.
func Fig7(cfg Config) (*Output, error) {
	cfg = cfg.withDefaults()
	out := &Output{ID: "fig7", Title: "Fig. 7: multiplier delay vs W/L for two vectors"}
	m := paperMultiplier(cfg.MultiplierBits)
	oa, ob, na, nb := vectorA(cfg.MultiplierBits)
	stimA := multStim(m, oa, ob, na, nb)
	oa, ob, na, nb = vectorB(cfg.MultiplierBits)
	stimB := multStim(m, oa, ob, na, nb)

	// One compiled engine serves the whole sweep; the W/L axis and the
	// CMOS baselines (wl=0) are per-run overrides fanned out on the
	// executor. Job layout: [baseA, baseB, wl0A, wl0B, wl1A, ...].
	cp, err := core.Compile(m.Circuit)
	if err != nil {
		return nil, err
	}
	type job struct {
		wl   float64
		stim circuit.Stimulus
	}
	jobs := []job{{0, stimA}, {0, stimB}}
	for _, wl := range fig7WLs {
		jobs = append(jobs, job{wl, stimA}, job{wl, stimB})
	}
	ds, err := sched.Map(cfg.Ctx, cfg.Workers, len(jobs), func(i int) (float64, error) {
		res, err := cp.RunWL(jobs[i].wl, jobs[i].stim, cfg.simOpts(core.Options{}))
		if err != nil {
			return 0, err
		}
		d, _, ok := res.MaxDelay(m.ProductNets)
		if !ok {
			return 0, fmt.Errorf("experiments: no product bit toggled")
		}
		return d, nil
	})
	if err != nil {
		return nil, err
	}
	baseA, baseB := ds[0], ds[1]

	s := report.NewSeries(fmt.Sprintf("%dx%d multiplier delay vs sleep W/L", cfg.MultiplierBits, cfg.MultiplierBits),
		"W/L", "A_ns", "B_ns", "A_deg_pct", "B_deg_pct")
	for k, wl := range fig7WLs {
		dA, dB := ds[2+2*k], ds[3+2*k]
		s.Add(wl, dA*1e9, dB*1e9, 100*(dA-baseA)/baseA, 100*(dB-baseB)/baseB)
	}
	out.Series = append(out.Series, s)
	out.note("CMOS baselines: A=%s B=%s (equal-delay vectors in CMOS, per the paper)", units.Seconds(baseA), units.Seconds(baseB))
	out.note("paper shape: vector A (many simultaneous discharges) degrades far more than B at every W/L; the curves converge as W/L grows")
	return out, nil
}

// Table1 regenerates Table 1: the base CMOS delay and the % delay
// degradation at selected sleep sizes for both vectors, plus the
// punchline — the W/L needed for a 5% budget under each vector, and
// what sizing by the benign vector B actually costs on A.
func Table1(cfg Config) (*Output, error) {
	cfg = cfg.withDefaults()
	out := &Output{ID: "table1", Title: "Table 1: degradation vs W/L and the 5% sizing trap"}
	m := paperMultiplier(cfg.MultiplierBits)
	n := cfg.MultiplierBits

	mk := func(f func(int) (uint64, uint64, uint64, uint64), label string) sizing.Transition {
		oa, ob, na, nb := f(n)
		return sizing.Transition{
			Old:   m.Inputs(oa, ob),
			New:   m.Inputs(na, nb),
			Label: label,
		}
	}
	trA := mk(vectorA, "A")
	trB := mk(vectorB, "B")
	cfgS := cfg.sizingCfg(m.ProductNets)

	// The 3x2 degradation grid fans out on the executor: each cell is
	// one independent Degradation measurement.
	wls := []float64{60, 170, 500}
	trs := []sizing.Transition{trA, trB}
	degs, err := sched.Map(cfg.Ctx, cfg.Workers, len(wls)*len(trs), func(i int) (float64, error) {
		return sizing.Degradation(m.Circuit, cfgS, []sizing.Transition{trs[i%2]}, wls[i/2])
	})
	if err != nil {
		return nil, err
	}
	tb := report.NewTable("Delay degradation (%) vs sleep W/L",
		"W/L", "vector A", "vector B")
	for k, wl := range wls {
		tb.Addf("%.0f\t%.1f%%\t%.1f%%", wl, degs[2*k]*100, degs[2*k+1]*100)
	}
	out.Tables = append(out.Tables, tb)

	// The two 5%-budget searches are independent bisections.
	hi := 64 * sizing.SumOfWidths(m.Circuit)
	sized, err := sched.Map(cfg.Ctx, cfg.Workers, 2, func(i int) (*sizing.DelayTargetResult, error) {
		return sizing.DelayTarget(m.Circuit, cfgS, []sizing.Transition{trs[i]}, 0.05, hi)
	})
	if err != nil {
		return nil, err
	}
	resA, resB := sized[0], sized[1]
	// The trap: size by B, evaluate on A.
	trap, err := sizing.Degradation(m.Circuit, cfgS, []sizing.Transition{trA}, resB.WL)
	if err != nil {
		return nil, err
	}
	t2 := report.NewTable("Sizing for a 5% budget", "criterion", "W/L", "note")
	t2.AddRow("vector A (worst case)", fmt.Sprintf("%.0f", resA.WL),
		fmt.Sprintf("measured %.1f%%", resA.Degradation*100))
	t2.AddRow("vector B (benign)", fmt.Sprintf("%.0f", resB.WL),
		fmt.Sprintf("measured %.1f%%", resB.Degradation*100))
	t2.AddRow("B-sized device under vector A", fmt.Sprintf("%.0f", resB.WL),
		fmt.Sprintf("degrades %.1f%% — the paper's trap (18%% there)", trap*100))
	out.Tables = append(out.Tables, t2)
	out.note("paper: sizing by vector B (W/L=60) looked safe but costs 18.1%% on vector A; only W/L>=170 meets 5%% for A. The reproduction must show the same ordering and a trap degradation well above 5%%.")
	return out, nil
}

// Peak regenerates the section 4 peak-current analysis: sizing for the
// worst instantaneous current with a fixed bounce budget is about 3x
// more conservative than sizing for the actual 5% delay target.
func Peak(cfg Config) (*Output, error) {
	cfg = cfg.withDefaults()
	out := &Output{ID: "peak", Title: "Sec. 4: peak-current vs delay-target sizing"}
	m := paperMultiplier(cfg.MultiplierBits)
	n := cfg.MultiplierBits
	oa, ob, na, nb := vectorA(n)
	trA := sizing.Transition{Old: m.Inputs(oa, ob), New: m.Inputs(na, nb), Label: "A"}
	cfgS := cfg.sizingCfg(m.ProductNets)

	// Paper: 50mV fixed bounce budget gives about 5% degradation.
	pk, err := sizing.PeakCurrent(m.Circuit, cfgS, []sizing.Transition{trA}, 0.05)
	if err != nil {
		return nil, err
	}
	hi := 64 * sizing.SumOfWidths(m.Circuit)
	dt, err := sizing.DelayTarget(m.Circuit, cfgS, []sizing.Transition{trA}, 0.05, hi)
	if err != nil {
		return nil, err
	}
	tb := report.NewTable("Sleep sizing for vector A", "method", "W/L", "basis")
	tb.AddRow("peak current", fmt.Sprintf("%.0f", pk.WL),
		fmt.Sprintf("Ipeak=%s held at 50mV bounce", units.Amps(pk.Ipeak)))
	tb.AddRow("delay target 5%", fmt.Sprintf("%.0f", dt.WL),
		fmt.Sprintf("measured %.1f%% degradation", dt.Degradation*100))
	tb.AddRow("overdesign factor", fmt.Sprintf("%.1fx", pk.WL/dt.WL),
		"paper reports ~3x (W/L>500 vs ~170)")
	out.Tables = append(out.Tables, tb)
	out.note("paper: peak current 1.174mA and a 50mV budget imply W/L>500, almost 3x larger than the W/L~170 the delay actually requires")
	return out, nil
}

// Widths regenerates the section 2 comparison of sizing estimates on
// all three benchmark circuits: sum-of-widths and peak-current are
// both far above the delay-target size.
func Widths(cfg Config) (*Output, error) {
	cfg = cfg.withDefaults()
	out := &Output{ID: "widths", Title: "Sec. 2: sizing-estimate comparison across circuits"}
	tb := report.NewTable("Sleep W/L by method (5% budget / 50mV bounce)",
		"circuit", "sum-of-widths", "peak-current", "delay-target", "overdesign")

	add := func(name string, c *circuit.Circuit, cfgS sizing.Config, trs []sizing.Transition) error {
		sw := sizing.SumOfWidths(c)
		pk, err := sizing.PeakCurrent(c, cfgS, trs, 0.05)
		if err != nil {
			return err
		}
		dt, err := sizing.DelayTarget(c, cfgS, trs, 0.05, 64*sw)
		if err != nil {
			return err
		}
		tb.Addf("%s\t%.0f\t%.0f\t%.0f\t%.1fx / %.1fx",
			name, sw, pk.WL, dt.WL, sw/dt.WL, pk.WL/dt.WL)
		return nil
	}

	tree, _ := paperTree()
	treeTrs := []sizing.Transition{
		{Old: map[string]bool{"in": false}, New: map[string]bool{"in": true}, Label: "0->1"},
		{Old: map[string]bool{"in": true}, New: map[string]bool{"in": false}, Label: "1->0"},
	}
	if err := add("inverter tree", tree, cfg.sizingCfg(nil), treeTrs); err != nil {
		return nil, err
	}

	ad := paperAdder(cfg.AdderBits)
	space := adderSpace(cfg.AdderBits)
	var adTrs []sizing.Transition
	half := uint64(1) << uint(cfg.AdderBits)
	// A handful of stressing transitions: all-on, carry ripple, random.
	picks := [][2]uint64{{0, space.Size() - 1}, {0, half - 1}, {half / 2, space.Size() - 1}}
	for _, p := range picks {
		o, w := p[0], p[1]
		adTrs = append(adTrs, sizing.Transition{
			Old:   ad.Inputs(o%half, o/half, false),
			New:   ad.Inputs(w%half, w/half, false),
			Label: fmt.Sprintf("%d->%d", o, w),
		})
	}
	if err := add("3-bit adder", ad.Circuit, cfg.sizingCfg(nil), adTrs); err != nil {
		return nil, err
	}

	m := paperMultiplier(cfg.MultiplierBits)
	oa, ob, na, nb := vectorA(cfg.MultiplierBits)
	mTrs := []sizing.Transition{{Old: m.Inputs(oa, ob), New: m.Inputs(na, nb), Label: "A"}}
	if err := add(fmt.Sprintf("%dx%d multiplier", cfg.MultiplierBits, cfg.MultiplierBits),
		m.Circuit, cfg.sizingCfg(m.ProductNets), mTrs); err != nil {
		return nil, err
	}

	out.Tables = append(out.Tables, tb)
	out.note("paper: summing internal widths 'can produce unnecessarily large estimates'; designing for peak current 'too gives overly conservative estimates'")
	return out, nil
}

// WorstVectorSearch is an extension of the paper's workflow: use the
// fast simulator inside a greedy bit-flip search to find high-
// degradation vectors without exhaustive enumeration. Exported for the
// examples and the facade; not part of the paper's figures.
//
// Restarts draw their starting pairs from independent derived seeds
// (vectors.StartPair) and hill-climb independently, so they fan out on
// the executor; the result is identical for any worker count, with
// metric ties between restarts resolved toward the lowest restart
// index. workers <= 0 means one per CPU.
func WorstVectorSearch(m *circuits.Multiplier, wl float64, restarts int, seed int64, workers int) (vectors.Ranked, error) {
	names := append(vectors.BitNames("x", m.N), vectors.BitNames("y", m.N)...)
	space, err := vectors.NewSpace(names...)
	if err != nil {
		return vectors.Ranked{}, err
	}
	cp, err := core.Compile(m.Circuit)
	if err != nil {
		return vectors.Ranked{}, err
	}
	half := uint64(1) << uint(m.N)
	type climb struct {
		best vectors.Ranked
		err  error
	}
	climbs, _ := sched.Map(nil, workers, restarts, func(r int) (climb, error) {
		var firstErr error
		metric := func(o, w uint64) float64 {
			stim := multStim(m, o%half, o/half, w%half, w/half)
			base, err := cp.RunWL(0, stim, core.Options{})
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return -1
			}
			d0, _, ok := base.MaxDelay(m.ProductNets)
			if !ok || d0 <= 0 {
				return -1
			}
			mt, err := cp.RunWL(wl, stim, core.Options{})
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return -1
			}
			d1, _, ok := mt.MaxDelay(m.ProductNets)
			if !ok {
				return -1
			}
			return (d1 - d0) / d0
		}
		o, w := space.StartPair(seed, r)
		return climb{best: space.HillClimb(o, w, metric), err: firstErr}, nil
	})
	best := vectors.Ranked{Metric: -1}
	var firstErr error
	for _, c := range climbs {
		if c.err != nil && firstErr == nil {
			firstErr = c.err
		}
		if c.best.Metric > best.Metric {
			best = c.best
		}
	}
	return best, firstErr
}
