package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"mtcmos/internal/circuit"
	"mtcmos/internal/circuits"
	"mtcmos/internal/core"
	"mtcmos/internal/report"
	"mtcmos/internal/sched"
	"mtcmos/internal/vectors"
)

const adderTStop = 20e-9

// fig13WLs is the sleep-size sweep for the adder comparison.
var fig13WLs = []float64{2, 4, 6, 8, 10, 14, 18, 24, 30}

// Fig13 regenerates Fig. 13: 3-bit ripple adder propagation delay vs
// sleep W/L, reference engine vs switch-level, for the paper's marked
// transition (000001) -> (110101), i.e. (a=0,b=1) -> (a=6,b=5).
func Fig13(cfg Config) (*Output, error) {
	cfg = cfg.withDefaults()
	out := &Output{ID: "fig13", Title: "Fig. 13: 3-bit adder delay vs W/L"}
	ad := circuits.PaperAdder(cfg.AdderBits)
	stim := ad.Pair(0, 1, 6, 5).Stimulus()

	cols := []string{"vbs_ns"}
	if !cfg.Fast {
		cols = append(cols, "spice_ns", "ratio")
	}
	s := report.NewSeries("Adder delay vs sleep W/L, vector (000001)->(110101)", "W/L", cols...)
	// The switch-level points share one compiled engine with per-run W/L
	// overrides; the reference engine compiles its own deck per point,
	// so each job builds a private adder for it.
	cp, err := core.Compile(ad.Circuit)
	if err != nil {
		return nil, err
	}
	outs := ad.Circuit.OutputNames()
	type point struct{ dv, ds float64 }
	pts, err := sched.Map(cfg.Ctx, cfg.Workers, len(fig13WLs), func(i int) (point, error) {
		wl := fig13WLs[i]
		res, err := cp.RunWL(wl, stim, cfg.simOpts(core.Options{}))
		if err != nil {
			return point{}, err
		}
		dv, _, ok := res.MaxDelay(outs)
		if !ok {
			return point{}, fmt.Errorf("experiments: no output toggled")
		}
		if cfg.Fast {
			return point{dv: dv}, nil
		}
		own := circuits.PaperAdder(cfg.AdderBits)
		own.SleepWL = wl
		ds, _, err := spiceDelay(cfg, own.Circuit, stim, adderTStop)
		if err != nil {
			return point{}, err
		}
		return point{dv: dv, ds: ds}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, wl := range fig13WLs {
		if cfg.Fast {
			s.Add(wl, pts[i].dv*1e9)
			continue
		}
		s.Add(wl, pts[i].dv*1e9, pts[i].ds*1e9, pts[i].dv/pts[i].ds)
	}
	out.Series = append(out.Series, s)
	out.note("paper shape: both engines agree on the rising-delay-at-small-W/L trend; absolute offsets reflect the first-order gate model (paper section 5.3)")
	return out, nil
}

// adderSpace enumerates the paper's 4096 transitions: every ordered
// pair of 6-bit (a,b) operand vectors with the carry-in grounded.
func adderSpace(bits int) *vectors.Space {
	names := append(vectors.BitNames("a", bits), vectors.BitNames("b", bits)...)
	s, err := vectors.NewSpace(names...)
	if err != nil {
		panic(err)
	}
	return s
}

// degVBS computes the % degradation due to MTCMOS (paper Fig. 14's
// y-axis) of one transition on a compiled switch-level engine: the
// worst settling delay over outputs at the given sleep size vs the
// plain-CMOS baseline. Safe to call from many workers at once.
func degVBS(cfg Config, cp *core.Compiled, stim circuit.Stimulus, wl float64, outs []string) (float64, bool, error) {
	base, err := cp.RunWL(0, stim, cfg.simOpts(core.Options{}))
	if err != nil {
		return 0, false, err
	}
	d0, _, ok := base.MaxDelay(outs)
	if !ok || d0 <= 0 {
		return 0, false, nil
	}
	mt, err := cp.RunWL(wl, stim, cfg.simOpts(core.Options{}))
	if err != nil {
		return 0, false, err
	}
	d1, _, ok := mt.MaxDelay(outs)
	if !ok {
		return 0, false, nil
	}
	return 100 * (d1 - d0) / d0, true, nil
}

// Fig14 regenerates Fig. 14: the spread of per-vector % degradation at
// W/L=10 over transitions that toggle the S2 output, ordered worst to
// best by the reference measure, with the switch-level values overlaid.
// The reference column is limited to cfg.SpiceVectors transitions
// (default 24; the paper plots 800) — the switch-level column covers
// every sampled transition.
func Fig14(cfg Config) (*Output, error) {
	cfg = cfg.withDefaults()
	out := &Output{ID: "fig14", Title: "Fig. 14: % degradation per vector, 3-bit adder, W/L=10"}
	const wl = 10.0

	// Measure every ordered pair on one compiled engine. sched.Map
	// returns items in pair order, so the collected candidate list —
	// and everything downstream — is identical for any worker count.
	type cand struct {
		oa, ob, na, nb uint64
		deg            float64
		ok             bool // toggles S2 and has a measurable baseline delay
	}
	ad := circuits.PaperAdder(cfg.AdderBits)
	outs := ad.Circuit.OutputNames()
	s2 := fmt.Sprintf("s%d", cfg.AdderBits-1)
	cp, err := core.Compile(ad.Circuit)
	if err != nil {
		return nil, err
	}
	size := adderSpace(cfg.AdderBits).Size()
	half := uint64(1) << uint(cfg.AdderBits)
	items, err := sched.Map(cfg.Ctx, cfg.Workers, int(size*size), func(k int) (cand, error) {
		o, w := uint64(k)/size, uint64(k)%size
		c := cand{oa: o % half, ob: o / half, na: w % half, nb: w / half}
		ov, _ := ad.Evaluate(ad.Inputs(c.oa, c.ob, false))
		nv, _ := ad.Evaluate(ad.Inputs(c.na, c.nb, false))
		if ov[s2] == nv[s2] {
			return c, nil
		}
		var err error
		c.deg, c.ok, err = degVBS(cfg, cp, ad.Pair(c.oa, c.ob, c.na, c.nb).Stimulus(), wl, outs)
		return c, err
	})
	if err != nil {
		return nil, err
	}
	var cands []cand
	for _, c := range items {
		if c.ok {
			cands = append(cands, c)
		}
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].deg > cands[j].deg })

	s := report.NewSeries(fmt.Sprintf("%% degradation due to MTCMOS (W/L=%g), %d S2-toggling vectors, sorted", wl, len(cands)),
		"rank", "vbs_deg_pct")
	step := 1
	if len(cands) > 120 {
		step = len(cands) / 120
	}
	for i := 0; i < len(cands); i += step {
		s.Add(float64(i), cands[i].deg)
	}
	out.Series = append(out.Series, s)

	// Reference-engine overlay on a subset, sampled across the sorted
	// order so the trend (not just the head) is checked.
	nSpice := cfg.SpiceVectors
	if nSpice == 0 {
		nSpice = 24
	}
	if cfg.Fast {
		nSpice = 0
	}
	if nSpice > 0 && len(cands) > 0 {
		if nSpice > len(cands) {
			nSpice = len(cands)
		}
		ref := report.NewSeries(fmt.Sprintf("reference-engine overlay (%d vectors)", nSpice),
			"rank", "spice_deg_pct", "vbs_deg_pct")
		// Each overlay point runs two reference transients; the jobs own
		// private adder instances because the reference engine compiles
		// its deck from the circuit's current SleepWL.
		type refPt struct {
			i   int
			deg float64
		}
		refPts, err := sched.Map(cfg.Ctx, cfg.Workers, nSpice, func(k int) (refPt, error) {
			i := k * (len(cands) - 1) / max(1, nSpice-1)
			cd := cands[i]
			own := circuits.PaperAdder(cfg.AdderBits)
			stim := own.Pair(cd.oa, cd.ob, cd.na, cd.nb).Stimulus()
			own.SleepWL = 0
			b, _, err := spiceDelay(cfg, own.Circuit, stim, adderTStop)
			if err != nil {
				return refPt{}, err
			}
			own.SleepWL = wl
			m, _, err := spiceDelay(cfg, own.Circuit, stim, adderTStop)
			if err != nil {
				return refPt{}, err
			}
			return refPt{i: i, deg: 100 * (m - b) / b}, nil
		})
		if err != nil {
			return nil, err
		}
		for _, p := range refPts {
			i := p.i
			ref.Add(float64(i), p.deg, cands[i].deg)
		}
		out.Series = append(out.Series, ref)
	}
	out.note("paper shape: a long tail — few vectors suffer large degradation, most suffer little; the switch-level points track the reference trend with visible spread (paper: 'significant spread about the SPICE prediction, the general trend is correct')")
	return out, nil
}

// Speedup regenerates the section 6.2 runtime comparison: the paper
// reports 4.78 CPU-hours of SPICE vs 13.5 s of the switch-level tool
// for all 4096 adder vectors. We time the switch-level sweep in full
// and extrapolate the reference engine from cfg.SpiceVectors measured
// transients (default 6).
func Speedup(cfg Config) (*Output, error) {
	cfg = cfg.withDefaults()
	out := &Output{ID: "speedup", Title: "Sec. 6.2: exhaustive-sweep runtime comparison"}
	ad := circuits.PaperAdder(cfg.AdderBits)
	ad.SleepWL = 10
	space := adderSpace(cfg.AdderBits)
	half := uint64(1) << uint(cfg.AdderBits)

	// The wall-clock total covers compiling the engine and the full
	// sweep at the configured worker count: what a user of the tool
	// sees.
	size := space.Size()
	n := int(size * size)
	start := time.Now()
	cp, err := core.Compile(ad.Circuit)
	if err != nil {
		return nil, err
	}
	_, err = sched.Map(cfg.Ctx, cfg.Workers, n, func(k int) (struct{}, error) {
		o, w := uint64(k)/size, uint64(k)%size
		_, err := cp.Run(ad.Pair(o%half, o/half, w%half, w/half).Stimulus(), cfg.simOpts(core.Options{}))
		return struct{}{}, err
	})
	if err != nil {
		return nil, err
	}
	vbsTotal := time.Since(start)

	tb := report.NewTable("Runtime for the exhaustive adder sweep",
		"tool", "vectors", "total", "per-vector", "speedup")
	tb.AddRow(fmt.Sprintf("switch-level (measured, %d workers)", sched.Workers(cfg.Workers)),
		fmt.Sprint(n), vbsTotal.String(), (vbsTotal / time.Duration(n)).String(), "1x")

	if !cfg.Fast {
		k := cfg.SpiceVectors
		if k == 0 {
			k = 6
		}
		rng := rand.New(rand.NewSource(cfg.Seed))
		// Sample pairs that actually toggle an output: a quiescent
		// transient has no delay to measure.
		stims := make([]circuit.Stimulus, 0, k)
		for len(stims) < k {
			o := rng.Uint64() % space.Size()
			w := rng.Uint64() % space.Size()
			ov, _ := ad.Evaluate(ad.Inputs(o%half, o/half, false))
			nv, _ := ad.Evaluate(ad.Inputs(w%half, w/half, false))
			toggles := false
			for _, net := range ad.Circuit.OutputNames() {
				if ov[net] != nv[net] {
					toggles = true
					break
				}
			}
			if !toggles {
				continue
			}
			stims = append(stims, ad.Pair(o%half, o/half, w%half, w/half).Stimulus())
		}
		start = time.Now()
		for _, stim := range stims {
			if _, _, err := spiceDelay(cfg, ad.Circuit, stim, adderTStop); err != nil {
				return nil, err
			}
		}
		spicePer := time.Since(start) / time.Duration(k)
		spiceTotal := spicePer * time.Duration(n)
		tb.AddRow(fmt.Sprintf("reference engine (measured %d, extrapolated)", k),
			fmt.Sprint(n), spiceTotal.String(), spicePer.String(),
			fmt.Sprintf("%.0fx slower", float64(spiceTotal)/float64(vbsTotal)))
		out.note("paper: SPICE 4.78h vs 13.5s on a Sparc 5, a ~1275x gap; the reproduction measures a gap of the order of 10^3 from two one-shot timings, which move with host load")
	}
	out.Tables = append(out.Tables, tb)
	return out, nil
}

// AblationReverse regenerates the section 2.3 analysis: modeling
// reverse conduction slightly speeds transitions (low outputs are
// precharged to Vx) at the cost of noise margin.
func AblationReverse(cfg Config) (*Output, error) {
	cfg = cfg.withDefaults()
	out := &Output{ID: "reverse", Title: "Sec. 2.3 ablation: reverse conduction"}
	ad := circuits.PaperAdder(cfg.AdderBits)
	outs := ad.Circuit.OutputNames()
	tb := report.NewTable("Reverse conduction on the 3-bit adder (worst vector (0,0)->(7,1))",
		"W/L", "delay_ns", "delay_rc_ns", "speedup_pct", "noise_margin_loss_mV")
	for _, wl := range []float64{4, 8, 16} {
		ad.SleepWL = wl
		stim := ad.Pair(0, 0, 7, 1).Stimulus()
		plain, err := core.Simulate(ad.Circuit, stim, cfg.simOpts(core.Options{}))
		if err != nil {
			return nil, err
		}
		rc, err := core.Simulate(ad.Circuit, stim, cfg.simOpts(core.Options{ReverseConduction: true}))
		if err != nil {
			return nil, err
		}
		dp, _, _ := plain.MaxDelay(outs)
		dr, _, _ := rc.MaxDelay(outs)
		tb.Addf("%g\t%.3f\t%.3f\t%.2f\t%.0f",
			wl, dp*1e9, dr*1e9, 100*(dp-dr)/dp, rc.NoiseMarginLoss*1e3)
	}
	out.Tables = append(out.Tables, tb)
	out.note("paper: 'the MTCMOS circuit is slightly faster ... the drawback is that noise margins are reduced'")
	return out, nil
}
