package sizing

import (
	"fmt"
	"sort"

	"mtcmos/internal/circuit"
	"mtcmos/internal/core"
	"mtcmos/internal/sca"
)

// StaticLevelResult reports the static level-bound estimate, and —
// when requested with Refine — its SAT-backed mutual-exclusion
// refinement.
type StaticLevelResult struct {
	WL          float64   // the bound itself, usable as a sleep W/L
	Level       int       // 1-based level where the maximum occurs
	Levels      []float64 // per-level Σ W/L (index 0 = level 1)
	SumOfWidths float64   // the naive bound, for comparison

	// Refined fields are populated only under the Refine option:
	// per-level widths with proven-exclusive gates contributing max
	// instead of sum (Refined ≤ WL always), the level of the refined
	// maximum, and the proof statistics.
	Refined       float64
	RefinedLevel  int
	RefinedLevels []float64
	Exclusions    *sca.ExclusionStats
}

// StaticLevelOption configures StaticLevel.
type StaticLevelOption func(*staticLevelOpts)

type staticLevelOpts struct {
	refine bool
	excl   sca.ExclConfig
}

// Refine asks StaticLevel to additionally run the SAT-backed
// mutual-exclusion refinement (sca.RefineLevels) and fill the Refined*
// fields. cfg tunes the proof budgets; a zero value takes the
// defaults.
func Refine(cfg sca.ExclConfig) StaticLevelOption {
	return func(o *staticLevelOpts) {
		o.refine = true
		o.excl = cfg
	}
}

// StaticLevel bounds the simultaneous-discharge width from topology
// alone: levelize the gate graph and take the widest level's summed
// pulldown W/L. Under a unit-delay abstraction only the gates of one
// level discharge simultaneously, so the widest level caps how much
// pulldown width can ever pull current through the sleep device at
// once, while never exceeding the sum-of-widths; it needs no vectors
// and no simulation, making it the cheapest estimator after
// sum-of-widths:
//
//	simulated discharge width ≤ StaticLevel ≤ SumOfWidths
//
// (SimultaneousWidth measures the left-hand side.) With the Refine
// option the chain gains one more rung on the left:
//
//	simulated discharge width ≤ Refined ≤ StaticLevel ≤ SumOfWidths
func StaticLevel(c *circuit.Circuit, opts ...StaticLevelOption) (*StaticLevelResult, error) {
	var o staticLevelOpts
	for _, opt := range opts {
		opt(&o)
	}
	l, err := sca.Levelize(c)
	if err != nil {
		return nil, fmt.Errorf("sizing: %w", err)
	}
	res := &StaticLevelResult{
		Levels:      l.WidthByLevel(c, -1),
		SumOfWidths: SumOfWidths(c),
	}
	res.WL, res.Level = l.MaxLevelWidth(c, -1)
	if res.WL <= 0 {
		return nil, fmt.Errorf("sizing: circuit has no NMOS pulldown width to bound")
	}
	if o.refine {
		r, err := sca.RefineLevels(c, o.excl)
		if err != nil {
			return nil, fmt.Errorf("sizing: refine: %w", err)
		}
		res.Refined, res.RefinedLevel = r.WL, r.Level
		res.RefinedLevels = r.Refined
		res.Exclusions = &r.Stats
	}
	return res, nil
}

// SimultaneousWidth measures, by simulation, the worst instantaneous
// simultaneous-discharge width over the transitions: the peak over
// time of Σ W/L of the gates discharging at that instant. This is the
// simulated counterpart of the static estimates — the width the sleep
// transistor actually has to carry at the worst moment — and on any
// transition it can reach at most the StaticLevel bound's worst level
// all discharging at once, and at most SumOfWidths with every gate
// discharging. The circuit is compiled once and never mutated, so
// concurrent sizing calls on one circuit are safe.
func SimultaneousWidth(c *circuit.Circuit, cfg Config, trs []Transition) (float64, error) {
	cf := cfg.withDefaults(c)
	opts := cf.Sim
	opts.RecordActivity = true
	cp, err := core.Compile(c)
	if err != nil {
		return 0, err
	}

	worst := 0.0
	for _, tr := range trs {
		// Measure in plain-CMOS mode: an undersized sleep device
		// stretches the discharge windows and would overlap levels that
		// do not overlap at speed.
		res, err := cp.RunWL(0, tr.Stimulus(), opts)
		if err != nil {
			return 0, fmt.Errorf("sizing: transition %s: %w", tr.Label, err)
		}
		if w := peakOverlapWidth(c, res.Activity); w > worst {
			worst = w
		}
	}
	if worst <= 0 {
		return 0, fmt.Errorf("sizing: no gate discharged under any transition")
	}
	return worst, nil
}

// peakOverlapWidth sweeps the discharge intervals and returns the
// largest summed W/L active at one instant. Interval ends sort before
// coincident starts (the windows are half-open).
func peakOverlapWidth(c *circuit.Circuit, activity [][]core.Interval) float64 {
	type event struct {
		t     float64
		delta float64
	}
	var evs []event
	for id, ivs := range activity {
		w := c.Gates[id].NMOSWidthWL()
		for _, iv := range ivs {
			if iv.End <= iv.Start {
				continue
			}
			evs = append(evs, event{iv.Start, w}, event{iv.End, -w})
		}
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].t != evs[j].t {
			return evs[i].t < evs[j].t
		}
		return evs[i].delta < evs[j].delta
	})
	cur, peak := 0.0, 0.0
	for _, ev := range evs {
		cur += ev.delta
		if cur > peak {
			peak = cur
		}
	}
	return peak
}
