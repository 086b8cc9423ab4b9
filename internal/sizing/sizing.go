// Package sizing implements the sleep-transistor sizing methodologies
// discussed in the paper: the naive sum-of-widths estimate (section 2),
// the conservative peak-current method (section 4), and the
// delay-target method — find the smallest W/L whose worst-case speed
// penalty over a set of input transitions stays within budget — which
// is the workflow the variable-breakpoint simulator exists to make
// practical.
package sizing

import (
	"errors"
	"fmt"
	"math"

	"mtcmos/internal/circuit"
	"mtcmos/internal/core"
	"mtcmos/internal/mosfet"
	"mtcmos/internal/sched"
	"mtcmos/internal/simerr"
)

// Transition is an input-vector pair evaluated during sizing; every
// transition is applied with the paper's input edge.
type Transition = circuit.Transition

// Config carries the common sizing inputs.
type Config struct {
	// Outputs are the nets whose settling delay defines circuit speed;
	// nil uses the circuit's marked outputs.
	Outputs []string
	// Sim options forwarded to the switch-level simulator; its Ctx
	// cancels the whole search and bounds its wall clock (DESIGN.md §8).
	Sim core.Options
	// Workers caps the per-transition simulation fan-out (0 = one
	// worker per CPU, 1 = serial). Results and errors are independent
	// of the worker count; see DESIGN.md §9.
	Workers int
}

func (cfg *Config) withDefaults(c *circuit.Circuit) Config {
	out := *cfg
	if out.Outputs == nil {
		out.Outputs = c.OutputNames()
	}
	return out
}

// SumOfWidths returns the naive estimate the paper calls
// "unnecessarily large": a sleep transistor as wide as every low-Vt
// NMOS pulldown it gates, summed (in W/L units).
func SumOfWidths(c *circuit.Circuit) float64 {
	return c.SumNMOSWidthWL()
}

// delayOut is one transition's measured worst output delay.
type delayOut struct {
	d  float64
	ok bool // some observed output toggled
}

// delaysOn fans the transitions out over the sweep executor, all
// against one compiled engine with domain 0 at sleep size wl, and
// folds the worst delay. Fails with the lowest-indexed transition's
// error, exactly like the serial loop it replaced.
func delaysOn(cp *core.Compiled, wl float64, cf Config, trs []Transition) (float64, error) {
	outs, err := sched.Map(cf.Sim.Ctx, cf.Workers, len(trs), func(i int) (delayOut, error) {
		res, rerr := cp.RunWL(wl, trs[i].Stimulus(), cf.Sim)
		if rerr != nil {
			return delayOut{}, fmt.Errorf("sizing: transition %s: %w", trs[i].Label, rerr)
		}
		d, _, ok := res.MaxDelay(cf.Outputs)
		return delayOut{d: d, ok: ok}, nil
	})
	if err != nil {
		return 0, err
	}
	worst, any := 0.0, false
	for _, o := range outs {
		if o.ok {
			any = true
			if o.d > worst {
				worst = o.d
			}
		}
	}
	if !any {
		return 0, fmt.Errorf("sizing: no transition toggled any observed output")
	}
	return worst, nil
}

// Delays runs the switch-level simulator at the circuit's current
// SleepWL and returns the worst settling delay over the transitions.
// Transitions run concurrently per Config.Workers.
func Delays(c *circuit.Circuit, cfg Config, trs []Transition) (float64, error) {
	cf := cfg.withDefaults(c)
	cp, err := core.Compile(c)
	if err != nil {
		return 0, err
	}
	return delaysOn(cp, c.SleepWL, cf, trs)
}

// delaysTolerant is delaysOn with per-transition fault tolerance: a
// recoverable simulator failure (non-convergence, numerical poison,
// exhausted budget — everything the recovery ladder could not rescue)
// skips that transition with a warning instead of aborting the search.
// Cancellation and configuration errors still abort. A partial result
// from a failed run is deliberately NOT measured: an incomplete
// waveform can understate the delay and undersize the sleep device. It
// errors only when no transition produced a usable delay.
//
// Every transition runs (concurrently, per Config.Workers), but
// outcomes are folded in transition order, so warnings and the
// reported error are identical to the serial path's.
func delaysTolerant(cp *core.Compiled, wl float64, cf Config, trs []Transition) (float64, []string, error) {
	outs, errs := sched.MapAll(cf.Sim.Ctx, cf.Workers, len(trs), func(i int) (delayOut, error) {
		res, err := cp.RunWL(wl, trs[i].Stimulus(), cf.Sim)
		if err != nil {
			return delayOut{}, err
		}
		d, _, ok := res.MaxDelay(cf.Outputs)
		return delayOut{d: d, ok: ok}, nil
	})
	worst, any := 0.0, false
	var warns []string
	var firstSkip error
	for i, tr := range trs {
		if err := errs[i]; err != nil {
			if !simerr.IsRecoverable(err) || errors.Is(err, simerr.ErrCancelled) {
				return 0, warns, fmt.Errorf("sizing: transition %s: %w", tr.Label, err)
			}
			if firstSkip == nil {
				firstSkip = err
			}
			warns = append(warns, fmt.Sprintf("transition %s skipped: %v", tr.Label, err))
			continue
		}
		if outs[i].ok {
			any = true
			if outs[i].d > worst {
				worst = outs[i].d
			}
		}
	}
	if !any {
		if firstSkip != nil {
			// Wrap the first skip so the caller can classify the
			// failure (and e.g. degrade to a static estimate).
			return 0, warns, fmt.Errorf("sizing: no transition produced a usable delay (%d skipped): %w",
				len(warns), firstSkip)
		}
		return 0, warns, fmt.Errorf("sizing: no transition produced a usable delay")
	}
	return worst, warns, nil
}

// Degradation returns the fractional slowdown of the circuit at sleep
// size wl relative to the plain-CMOS baseline, over the worst of the
// given transitions: (t_mtcmos - t_cmos) / t_cmos. The circuit is
// compiled once and never mutated, so concurrent Degradation calls on
// one circuit are safe.
func Degradation(c *circuit.Circuit, cfg Config, trs []Transition, wl float64) (float64, error) {
	cf := cfg.withDefaults(c)
	cp, err := core.Compile(c)
	if err != nil {
		return 0, err
	}
	base, err := delaysOn(cp, 0, cf, trs)
	if err != nil {
		return 0, err
	}
	mt, err := delaysOn(cp, wl, cf, trs)
	if err != nil {
		return 0, err
	}
	return (mt - base) / base, nil
}

// DelayTargetResult reports the delay-target sizing outcome.
type DelayTargetResult struct {
	WL          float64 // smallest W/L meeting the target
	Degradation float64 // measured degradation at WL
	BaseDelay   float64 // plain-CMOS worst delay
	Evals       int     // simulator invocations spent

	// Degraded marks a result whose simulations failed beyond rescue:
	// WL comes from the estimator named by Estimate ("static-level")
	// instead of the delay search, and Warnings explains why. A
	// degraded WL is a conservative topological bound, never an
	// undersized guess.
	Degraded bool
	Estimate string   // "delay-target", or the fallback estimator used
	Warnings []string // skipped transitions and degrade reasons
}

// positiveFinite reports whether a sizing budget is usable: NaN passes
// a plain x <= 0 guard, and neither NaN nor +Inf bounds a search.
func positiveFinite(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// DelayTarget finds the smallest sleep-transistor W/L whose worst-case
// degradation over the transitions does not exceed target (e.g. 0.05
// for the paper's 5% budget), by bisection over log W/L. The search
// space is [1, hi]; hi defaults to 64x the sum-of-widths bound, far
// into ideal-ground territory.
func DelayTarget(c *circuit.Circuit, cfg Config, trs []Transition, target, hi float64) (*DelayTargetResult, error) {
	if !positiveFinite(target) {
		return nil, fmt.Errorf("sizing: target degradation must be positive, got %g", target)
	}
	cf := cfg.withDefaults(c)
	cp, cerr := core.Compile(c)
	if cerr != nil {
		return nil, cerr
	}

	res := &DelayTargetResult{Estimate: "delay-target"}
	// fail degrades the search to the static-level estimate rather than
	// aborting — unless the failure is a cancellation (the caller asked
	// us to stop) or the topological fallback itself is unusable.
	fail := func(cause error) (*DelayTargetResult, error) {
		if errors.Is(cause, simerr.ErrCancelled) || !simerr.IsRecoverable(cause) {
			return nil, cause
		}
		sl, serr := StaticLevel(c)
		if serr != nil {
			return nil, fmt.Errorf("sizing: %w (static-level fallback also failed: %v)", cause, serr)
		}
		res.WL = sl.WL
		res.Degraded = true
		res.Estimate = "static-level"
		res.Degradation = math.NaN()
		res.Warnings = append(res.Warnings, fmt.Sprintf(
			"delay search failed (%v); degraded to the static-level bound W/L=%.4g", cause, sl.WL))
		return res, nil
	}

	base, warns, err := delaysTolerant(cp, 0, cf, trs)
	res.Warnings = append(res.Warnings, warns...)
	if err != nil {
		return fail(err)
	}
	res.BaseDelay = base
	res.Evals++

	if hi <= 0 {
		hi = 64 * SumOfWidths(c)
	}
	degAt := func(wl float64) (float64, error) {
		d, warns, err := delaysTolerant(cp, wl, cf, trs)
		res.Warnings = append(res.Warnings, warns...)
		if err != nil {
			return 0, err
		}
		res.Evals++
		return (d - base) / base, nil
	}

	dHi, err := degAt(hi)
	if err != nil {
		return fail(err)
	}
	if dHi > target {
		return nil, fmt.Errorf("sizing: even W/L=%g degrades %.1f%% (> %.1f%%); raise hi",
			hi, dHi*100, target*100)
	}
	lo := 1.0
	dLo, err := degAt(lo)
	if err != nil {
		return fail(err)
	}
	if dLo <= target {
		res.WL, res.Degradation = lo, dLo
		return res, nil
	}
	// Bisect on log W/L; degradation is monotone decreasing in W/L.
	for i := 0; i < 40 && hi/lo > 1.005; i++ {
		mid := math.Sqrt(lo * hi)
		d, err := degAt(mid)
		if err != nil {
			return fail(err)
		}
		if d <= target {
			hi, dHi = mid, d
		} else {
			lo = mid
		}
	}
	res.WL, res.Degradation = hi, dHi
	return res, nil
}

// PeakCurrentResult reports the conservative peak-current sizing.
type PeakCurrentResult struct {
	Ipeak     float64 // worst instantaneous discharge current (A)
	MaxBounce float64 // the bounce budget used (V)
	WL        float64 // resulting sleep size
}

// PeakCurrent sizes the sleep transistor so that, if the peak
// simultaneous discharge current flowed through it continuously, the
// virtual ground would stay below maxBounce volts: W/L such that
// R_eff = maxBounce / Ipeak. The paper shows this is roughly 3x larger
// than necessary on the 8x8 multiplier because currents do not stay at
// their peak for a whole computation. Ipeak is measured with the
// switch-level simulator in plain-CMOS mode (ideal ground), which is
// the worst case for current magnitude.
func PeakCurrent(c *circuit.Circuit, cfg Config, trs []Transition, maxBounce float64) (*PeakCurrentResult, error) {
	if !positiveFinite(maxBounce) {
		return nil, fmt.Errorf("sizing: maxBounce must be positive, got %g", maxBounce)
	}
	cf := cfg.withDefaults(c)
	cp, err := core.Compile(c)
	if err != nil {
		return nil, err
	}

	// Measure the raw discharge-current profile on a huge sleep device:
	// effectively ideal ground, but the MTCMOS path still records the
	// total current through the rail.
	peaks, err := sched.Map(cf.Sim.Ctx, cf.Workers, len(trs), func(i int) (float64, error) {
		res, rerr := cp.RunWL(1e7, trs[i].Stimulus(), cf.Sim)
		if rerr != nil {
			return 0, fmt.Errorf("sizing: transition %s: %w", trs[i].Label, rerr)
		}
		return res.PeakISleep, nil
	})
	if err != nil {
		return nil, err
	}
	peak := 0.0
	for _, p := range peaks {
		if p > peak {
			peak = p
		}
	}
	if peak <= 0 {
		return nil, fmt.Errorf("sizing: no discharge current observed")
	}
	r := maxBounce / peak
	wl, err := mosfet.SleepWLForResistance(c.Tech, r)
	if err != nil {
		return nil, err
	}
	return &PeakCurrentResult{Ipeak: peak, MaxBounce: maxBounce, WL: wl}, nil
}
