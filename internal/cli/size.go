package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"

	"mtcmos"
	"mtcmos/internal/circuits"
)

// Size implements the mtsize command: size a benchmark circuit's sleep
// transistor with each of the paper's methodologies.
func Size(args []string, w io.Writer) error {
	return SizeContext(context.Background(), args, w)
}

// SizeContext is Size under a caller context: cancelling ctx aborts
// the sizing search between simulator steps (exit code ExitCancelled).
func SizeContext(ctx context.Context, args []string, w io.Writer) (err error) {
	fs := flag.NewFlagSet("mtsize", flag.ContinueOnError)
	fs.SetOutput(w)
	var (
		circ    = fs.String("circuit", "tree", "benchmark circuit: tree | adder | mult | select")
		bits    = fs.Int("bits", 0, "operand width for adder/mult/select (defaults 3 / 8 / 8; the tree has none)")
		target  = fs.Float64("target", 5, "delay degradation budget in percent")
		bounce  = fs.Float64("bounce", 0.05, "bounce budget for the peak-current method (volts)")
		nvec    = fs.Int("vectors", 8, "random stressing transitions to evaluate (plus the paper's named vectors)")
		seed    = fs.Int64("seed", 1, "random vector seed")
		powerF  = fs.Bool("power", true, "print the power/leakage summary at the chosen size")
		nolint  = fs.Bool("nolint", false, "skip the pre-sizing lint pass (mtlint rules)")
		estF    = fs.String("estimate", "all", "estimators to run: all | sum | peak | delay | static-level | refined")
		timeout = fs.Duration("timeout", 0, "wall-clock budget for the whole search (0 = unlimited; overruns exit 4)")
		maxStep = fs.Int("max-steps", 0, "cap switch-level events per simulation; 0 = unlimited")
		jobs    = fs.Int("j", 0, "parallel workers for per-transition sweeps (0 = one per CPU, 1 = serial); results are identical for any value")
		standby = fs.Bool("standby", false, "verify the chosen size with a reference-engine standby DC analysis (leakage reduction, virtual-ground float)")
		version = versionFlag(fs)
		profF   = addProfileFlags(fs)
	)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *version {
		printVersion(w, "mtsize")
		return nil
	}
	prof, err := profF.start()
	if err != nil {
		return err
	}
	defer prof.stop(&err)
	ctx, cancel := budgetCtx(ctx, *timeout)
	defer cancel()
	est := *estF
	switch est {
	case "all", "sum", "peak", "delay", "static-level", "refined":
	default:
		return fmt.Errorf("unknown estimate %q (all | sum | peak | delay | static-level | refined)", est)
	}
	want := func(kind string) bool { return est == "all" || est == kind }

	c, cfg, trs, err := build(*circ, *bits, *nvec, *seed)
	if err != nil {
		return err
	}
	cfg.Sim.Ctx = ctx
	cfg.Sim.MaxEvents = *maxStep
	cfg.Workers = *jobs
	if !*nolint {
		if err := lintCircuit(c, nil, nil); err != nil {
			return err
		}
	}

	sw := mtcmos.SumOfWidths(c)
	fmt.Fprintf(w, "circuit: %s (%d gates, %d transistors)\n", c.Name, len(c.Gates), c.Stats().Transistors)
	fmt.Fprintf(w, "transitions evaluated: %d\n\n", len(trs))
	if want("sum") {
		fmt.Fprintf(w, "%-22s W/L = %8.1f   (paper: 'unnecessarily large')\n", "sum-of-widths:", sw)
	}

	if want("static-level") {
		st, err := mtcmos.SizeForStaticLevel(c)
		if err != nil {
			return fmt.Errorf("static-level: %w", err)
		}
		fmt.Fprintf(w, "%-22s W/L = %8.1f   (widest level %d of %d; no simulation)\n",
			"static-level:", st.WL, st.Level, len(st.Levels))
	}

	if want("refined") {
		st, err := mtcmos.SizeForStaticLevel(c, mtcmos.WithRefinement(mtcmos.ExclusionConfig{Workers: *jobs, Ctx: ctx}))
		if err != nil {
			return fmt.Errorf("refined: %w", err)
		}
		ex := st.Exclusions
		fmt.Fprintf(w, "%-22s W/L = %8.1f   (static %.1f; %d exclusions proven, %d pairs queried)\n",
			"refined:", st.Refined, st.WL, ex.Proven, ex.Queried)
		if ex.Fallback != "" {
			fmt.Fprintf(w, "  note: refinement fell back to the static bound: %s\n", ex.Fallback)
		}
		if ex.TruncatedPairs > 0 || ex.Unknown > 0 {
			fmt.Fprintf(w, "  note: proof budget truncated (%d pairs dropped, %d queries inconclusive); bound stays sound\n",
				ex.TruncatedPairs, ex.Unknown)
		}
	}

	var pk *mtcmos.PeakSizing
	if want("peak") {
		pk, err = mtcmos.SizeForPeakCurrent(c, cfg, trs, *bounce)
		if err != nil {
			return fmt.Errorf("peak-current: %w", err)
		}
		fmt.Fprintf(w, "%-22s W/L = %8.1f   (Ipeak %.4g mA held to %.0f mV)\n",
			"peak-current:", pk.WL, pk.Ipeak*1e3, *bounce*1e3)
	}

	var dt *mtcmos.SizingResult
	if want("delay") {
		dt, err = mtcmos.SizeForDelayTarget(c, cfg, trs, *target/100, 64*sw)
		if err != nil {
			return fmt.Errorf("delay-target: %w", err)
		}
		if dt.Degraded {
			fmt.Fprintf(w, "%-22s W/L = %8.1f   (degraded: %s bound, delay search failed)\n",
				"delay-target:", dt.WL, dt.Estimate)
			for _, warn := range dt.Warnings {
				fmt.Fprintf(w, "  warning: %s\n", warn)
			}
		} else {
			fmt.Fprintf(w, "%-22s W/L = %8.1f   (measured %.2f%% vs %.0f%% budget; base %.4g ns; %d sims)\n",
				"delay-target:", dt.WL, dt.Degradation*100, *target, dt.BaseDelay*1e9, dt.Evals)
		}
	}
	if dt != nil && pk != nil {
		fmt.Fprintf(w, "\noverdesign: sum-of-widths %.1fx, peak-current %.1fx vs delay-target\n",
			sw/dt.WL, pk.WL/dt.WL)
	}

	if *powerF && dt != nil {
		c.SleepWL = dt.WL
		ps, err := mtcmos.AnalyzePower(c)
		if err != nil {
			return fmt.Errorf("power: %w", err)
		}
		fmt.Fprintf(w, "\nat W/L=%.1f: leakage %.4g nA sleeping vs %.4g nA ungated (%.0fx reduction)\n",
			dt.WL, ps.LeakageMTCMOS*1e9, ps.LeakageCMOS*1e9, ps.LeakageReduction)
		fmt.Fprintf(w, "sleep-gate switching energy %.4g fJ; break-even idle %.4g us\n",
			ps.SleepSwitchEnergy*1e15, ps.BreakEvenIdle*1e6)
	}

	if *standby {
		// Verify the sized device in sleep mode with the reference
		// engine's full-Newton DC analysis (the analytic power summary
		// above is a series-leakage model; this solves the network).
		wl := 0.0
		switch {
		case dt != nil:
			wl = dt.WL
		case pk != nil:
			wl = pk.WL
		default:
			return fmt.Errorf("-standby needs a sized device; include the delay or peak estimator")
		}
		c.SleepWL = wl
		sb, err := mtcmos.StandbyContext(ctx, c, trs[0].Old)
		if err != nil {
			return fmt.Errorf("standby: %w", err)
		}
		fmt.Fprintf(w, "\nstandby check at W/L=%.1f: vgnd floats to %.3g V\n",
			wl, sb.VGndFloat)
		fmt.Fprintf(w, "standby %.4g fA vs active %.4g nA: %.3gx reduction\n",
			sb.Standby*1e15, sb.Active*1e9, sb.Reduction)
	}
	return nil
}

// build builds the named benchmark from the catalogue with its named
// transitions and, after them, nvec random ones drawn from seed.
func build(kind string, bits, nvec int, seed int64) (*mtcmos.Circuit, mtcmos.SizingConfig, []mtcmos.Transition, error) {
	rng := rand.New(rand.NewSource(seed))
	random := func(trs []mtcmos.Transition, draw func() mtcmos.Transition) []mtcmos.Transition {
		for i := 0; i < nvec; i++ {
			tr := draw()
			tr.Label = fmt.Sprintf("rand%d", i)
			trs = append(trs, tr)
		}
		return trs
	}
	// operand draws n-bit operands.
	operand := func(n int) func() uint64 {
		mask := uint64(1)<<uint(n) - 1
		return func() uint64 { return rng.Uint64() & mask }
	}
	var none mtcmos.SizingConfig
	switch kind {
	case "tree":
		if err := treeBits(bits); err != nil {
			return nil, none, nil, err
		}
		return circuits.PaperTree(), none, circuits.InverterEdges(), nil
	case "adder":
		n, err := bitsWidth(bits, circuits.MinAdderBits, circuits.DefaultAdderBits)
		if err != nil {
			return nil, none, nil, err
		}
		ad, r := circuits.PaperAdder(n), operand(n)
		return ad.Circuit, none, random([]mtcmos.Transition{ad.CarryRipple(), ad.AllOn()},
			func() mtcmos.Transition { return ad.Pair(r(), r(), r(), r()) }), nil
	case "mult":
		n, err := bitsWidth(bits, circuits.MinMultiplierBits, circuits.DefaultMultiplierBits)
		if err != nil {
			return nil, none, nil, err
		}
		m, r := circuits.PaperMultiplier(n), operand(n)
		return m.Circuit, mtcmos.SizingConfig{Outputs: m.ProductNets}, random([]mtcmos.Transition{m.VectorA(), m.VectorB()},
			func() mtcmos.Transition { return m.Pair(r(), r(), r(), r()) }), nil
	case "select":
		n, err := bitsWidth(bits, circuits.MinSelectBits, circuits.DefaultSelectBits)
		if err != nil {
			return nil, none, nil, err
		}
		s, r := circuits.PaperSelect(n), operand(n)
		sel := func() bool { return rng.Intn(2) == 1 }
		return s.Circuit, none, random(s.Pairs()[:2], // switch branch, A falls
			func() mtcmos.Transition {
				return mtcmos.Transition{Old: s.Inputs(sel(), r(), r()), New: s.Inputs(sel(), r(), r())}
			}), nil
	default:
		return nil, none, nil, fmt.Errorf("unknown circuit %q (tree|adder|mult|select)", kind)
	}
}
