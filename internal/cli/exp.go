// Package cli implements the three command-line tools (mtexp, mtsim,
// mtsize) as testable functions over an explicit output writer; the
// binaries under cmd/ are thin wrappers.
package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"strings"
	"time"

	"mtcmos"
	"mtcmos/internal/circuits"
)

// Exp implements the mtexp command: it regenerates the paper's tables
// and figures. args excludes the program name; output goes to w.
func Exp(args []string, w io.Writer) error {
	return ExpContext(context.Background(), args, w)
}

// ExpContext is Exp under a caller context: cancelling ctx aborts the
// running experiment between simulator steps.
func ExpContext(ctx context.Context, args []string, w io.Writer) (err error) {
	fs := flag.NewFlagSet("mtexp", flag.ContinueOnError)
	fs.SetOutput(w)
	var (
		exp     = fs.String("e", "", "experiment id to run, or 'all'")
		fast    = fs.Bool("fast", false, "skip the reference-engine columns (switch-level only)")
		plot    = fs.Bool("plot", false, "render ASCII plots of the series")
		csv     = fs.Bool("csv", false, "emit tables as CSV instead of aligned text")
		multN   = fs.Int("mult", 8, "multiplier operand width (the paper uses 8)")
		adderN  = fs.Int("adder", 3, "adder width (the paper uses 3)")
		spiceN  = fs.Int("spicevectors", 0, "reference-engine vector budget for big sweeps (0 = per-experiment default)")
		seed    = fs.Int64("seed", 1, "sampling seed")
		timings = fs.Bool("time", false, "print per-experiment wall time")
		timeout = fs.Duration("timeout", 0, "wall-clock budget for the whole run (0 = unlimited; overruns exit 4)")
		jobs    = fs.Int("j", 0, "parallel sweep workers (0 = one per CPU, 1 = serial); results are identical for any value")
		version = versionFlag(fs)
		profF   = addProfileFlags(fs)
	)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *version {
		printVersion(w, "mtexp")
		return nil
	}
	// mtexp reports errors on w, not through its caller.
	err = checkWidth("mult", *multN, circuits.MinMultiplierBits)
	if err == nil {
		err = checkWidth("adder", *adderN, circuits.MinAdderBits)
	}
	if err == nil && *spiceN < 0 {
		err = fmt.Errorf("%w: -spicevectors %d: the vector count must be at least 0 (0 = default)", errUsage, *spiceN)
	}
	if err != nil {
		fmt.Fprintln(w, "mtexp:", err)
		return err
	}
	prof, err := profF.start()
	if err != nil {
		return err
	}
	defer prof.stop(&err)
	ctx, cancel := budgetCtx(ctx, *timeout)
	defer cancel()

	if *exp == "" {
		fmt.Fprintln(w, "available experiments (-e <id> or -e all):")
		for _, e := range mtcmos.Experiments() {
			fmt.Fprintf(w, "  %-8s %-10s %s\n", e.ID, e.Paper, e.Desc)
		}
		return nil
	}

	cfg := mtcmos.ExperimentConfig{
		Fast:           *fast,
		SpiceVectors:   *spiceN,
		MultiplierBits: *multN,
		AdderBits:      *adderN,
		Seed:           *seed,
		Ctx:            ctx,
		Workers:        *jobs,
	}
	var ids []string
	if *exp == "all" {
		for _, e := range mtcmos.Experiments() {
			ids = append(ids, e.ID)
		}
	} else {
		ids = strings.Split(*exp, ",")
	}

	var firstErr error
	for _, id := range ids {
		start := time.Now()
		out, err := mtcmos.RunExperiment(strings.TrimSpace(id), cfg)
		if err != nil {
			fmt.Fprintf(w, "mtexp: %s: %v\n", id, err)
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		fmt.Fprintf(w, "==== %s: %s ====\n", out.ID, out.Title)
		for _, tb := range out.Tables {
			if *csv {
				fmt.Fprint(w, tb.CSV())
			} else {
				fmt.Fprintln(w, tb.String())
			}
		}
		for _, s := range out.Series {
			if *csv {
				fmt.Fprint(w, s.Table().CSV())
			} else {
				fmt.Fprintln(w, s.String())
			}
			if *plot {
				fmt.Fprintln(w, s.Plot(64, 16))
			}
		}
		for _, n := range out.Notes {
			fmt.Fprintf(w, "note: %s\n", n)
		}
		if *timings {
			fmt.Fprintf(w, "(%s in %s)\n", out.ID, time.Since(start).Round(time.Millisecond))
		}
		fmt.Fprintln(w)
	}
	return firstErr
}
