package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"mtcmos"
	"mtcmos/internal/circuits"
	"mtcmos/internal/lint"
	"mtcmos/internal/netlist"
)

// Sim implements the mtsim command: simulate one input-vector
// transition on a benchmark circuit or a raw netlist deck.
func Sim(args []string, w io.Writer) error {
	return SimContext(context.Background(), args, w)
}

// SimContext is Sim under a caller context: cancelling ctx aborts the
// simulation between solver steps with a partial-result error that
// maps to ExitCancelled.
func SimContext(ctx context.Context, args []string, w io.Writer) (err error) {
	fs := flag.NewFlagSet("mtsim", flag.ContinueOnError)
	fs.SetOutput(w)
	var (
		circ    = fs.String("circuit", "tree", "benchmark circuit: tree | chain | adder | mult")
		netFile = fs.String("netlist", "", "simulate a raw SPICE-dialect deck instead of a benchmark circuit")
		techF   = fs.String("tech", "", "technology of a -netlist deck: 0.7 | 0.3 (default 0.7); benchmark circuits run at their paper node")
		wlS     = fs.String("wl", "10", "sleep transistor W/L (0 = plain CMOS); a comma-separated list sweeps the sizes on the parallel executor (vbs engine)")
		jobs    = fs.Int("j", 0, "parallel workers for a -wl sweep (0 = one per CPU, 1 = serial)")
		cx      = fs.Float64("cx", 0, "virtual-ground parasitic capacitance (farads)")
		engine  = fs.String("engine", "vbs", "simulation engine: vbs (switch-level) | spice (reference)")
		oldV    = fs.String("old", "", "old input vector: tree/chain 0|1, adder 'a,b' (decimal), mult 'x,y' (hex); operands must fit -bits")
		newV    = fs.String("new", "", "new input vector (defaults: tree/chain 1 from 0, adder 7,5 from 0,0 masked to -bits, mult the paper's vector A)")
		bits    = fs.Int("bits", 0, "chain length / adder or mult operand width (defaults 4 / 3 / 8; the tree has none)")
		traceS  = fs.String("trace", "", "comma-separated nets to print waveforms for")
		plot    = fs.Bool("plot", false, "ASCII-plot traced waveforms")
		tstop   = fs.String("tstop", "", "simulation horizon for the reference engine (e.g. 20n)")
		rev     = fs.Bool("reverse", false, "model reverse conduction (switch-level only)")
		nobody  = fs.Bool("nobody", false, "disable the body effect (switch-level only)")
		csvDir  = fs.String("csvout", "", "directory to write traced waveforms as CSV files")
		nolint  = fs.Bool("nolint", false, "skip the pre-simulation lint pass (mtlint rules)")
		timeout = fs.Duration("timeout", 0, "wall-clock budget for the run (0 = unlimited; overruns exit 4)")
		maxStep = fs.Int("max-steps", 0, "cap accepted timesteps (spice) / events (vbs); 0 = unlimited, overruns exit 4")
		version = versionFlag(fs)
		profF   = addProfileFlags(fs)
	)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *version {
		printVersion(w, "mtsim")
		return nil
	}
	tech := mtcmos.Tech07()
	if *techF != "" {
		if *netFile == "" {
			return fmt.Errorf("%w: -tech applies to -netlist decks; a benchmark circuit runs at its paper node", errUsage)
		}
		t, err := parseTech(*techF)
		if err != nil {
			return err
		}
		if t == nil {
			return fmt.Errorf("%w: -tech none: simulating a deck needs a technology (0.7 | 0.3)", errUsage)
		}
		tech = *t
	}
	prof, err := profF.start()
	if err != nil {
		return err
	}
	defer prof.stop(&err)
	ctx, cancel := budgetCtx(ctx, *timeout)
	defer cancel()

	if *netFile != "" {
		return runNetlist(ctx, w, *netFile, &tech, *tstop, *traceS, *plot, *nolint, *maxStep)
	}

	var wls []float64
	for _, part := range strings.Split(*wlS, ",") {
		v, err := netlist.ParseValue(part)
		if err != nil {
			return fmt.Errorf("bad -wl %q: %w", part, err)
		}
		wls = append(wls, v)
	}

	c, tr, outs, err := buildCircuit(*circ, *bits, *oldV, *newV)
	if err != nil {
		return err
	}
	stim := tr.Stimulus()
	c.VGndCap = *cx
	if !*nolint {
		// Every sweep entry passes the gate a single -wl would.
		for _, wl := range wls {
			c.SleepWL = wl
			if err := lintCircuit(c, stim.Old, stim.New); err != nil {
				return err
			}
		}
	}
	c.SleepWL = wls[0]

	opts := mtcmos.SwitchOptions{ReverseConduction: *rev, NoBodyEffect: *nobody, Ctx: ctx, MaxEvents: *maxStep}
	if len(wls) > 1 {
		if *engine != "vbs" {
			return fmt.Errorf("-wl sweeps support the vbs engine only (got %q)", *engine)
		}
		return runSweep(w, c, stim, outs, wls, mtcmos.BatchOptions{Workers: *jobs, Sim: opts})
	}

	switch *engine {
	case "vbs":
		if *traceS != "" {
			opts.TraceNets = strings.Split(*traceS, ",")
		}
		res, err := mtcmos.Simulate(c, stim, opts)
		if err != nil {
			return err
		}
		printVBS(w, res, outs, *plot)
		if *csvDir != "" {
			for name, pw := range res.Waves {
				if err := writeCSVFile(*csvDir, name, pw.WriteCSV); err != nil {
					return err
				}
			}
			if res.VGnd != nil {
				if err := writeCSVFile(*csvDir, "vgnd", res.VGnd.WriteCSV); err != nil {
					return err
				}
			}
		}
		return nil
	case "spice":
		ts := 20e-9
		if *tstop != "" {
			v, err := netlist.ParseValue(*tstop)
			if err != nil {
				return err
			}
			ts = v
		}
		ropts := mtcmos.SpiceOptions{Options: mtcmos.EngineOptions{
			TStop: ts, SampleDT: 20e-12, Ctx: ctx, MaxSteps: *maxStep,
		}}
		if *traceS != "" {
			ropts.RecordNets = strings.Split(*traceS, ",")
			ropts.RecordNets = append(ropts.RecordNets, outs...)
		}
		res, err := mtcmos.SimulateSpice(c, stim, ropts)
		if err != nil {
			return err
		}
		printSpice(w, c, res, outs, *traceS, *plot)
		if *csvDir != "" {
			for name, tr := range res.Traces {
				if err := writeCSVFile(*csvDir, name, tr.WriteCSV); err != nil {
					return err
				}
			}
		}
		return nil
	default:
		return fmt.Errorf("unknown engine %q", *engine)
	}
}

// runSweep runs one stimulus across several sleep sizes on one
// compiled engine and prints a per-size summary table. Rows come back
// in W/L order, so the table is identical at any worker count.
func runSweep(w io.Writer, c *mtcmos.Circuit, stim mtcmos.Stimulus, outs []string, wls []float64, opts mtcmos.BatchOptions) error {
	cp, err := mtcmos.CompileCircuit(c)
	if err != nil {
		return err
	}
	results, err := mtcmos.SimulateSweep(cp, wls, stim, opts)
	if err != nil {
		return err
	}
	tb := &mtcmos.Table{Title: "Switch-level sleep-size sweep", Columns: []string{"W/L", "worst_delay_ns", "worst_net", "peakVx_mV", "events"}}
	for i, res := range results {
		worst, worstNet, _ := res.MaxDelay(outs)
		if worstNet == "" {
			worstNet = "-"
		}
		tb.Addf("%g\t%.4g\t%s\t%.1f\t%d", wls[i], worst*1e9, worstNet, res.PeakVx*1e3, res.Events)
	}
	fmt.Fprintln(w, tb.String())
	return nil
}

// buildCircuit builds the named benchmark from the catalogue with the
// transition -old and -new select; an unset vector keeps the default.
func buildCircuit(kind string, bits int, oldS, newS string) (*mtcmos.Circuit, mtcmos.Transition, []string, error) {
	var none mtcmos.Transition
	switch kind {
	case "tree":
		c := circuits.PaperTree()
		tr, err := inputEdge(oldS, newS)
		return c, tr, c.OutputNames(), err
	case "chain":
		n, err := bitsWidth(bits, circuits.MinChainLength, circuits.DefaultChainLength)
		if err != nil {
			return nil, none, nil, err
		}
		c := circuits.PaperChain(n)
		tr, err := inputEdge(oldS, newS)
		return c, tr, c.OutputNames(), err
	case "adder":
		n, err := bitsWidth(bits, circuits.MinAdderBits, circuits.DefaultAdderBits)
		if err != nil {
			return nil, none, nil, err
		}
		ad := circuits.PaperAdder(n)
		mask := uint64(1)<<uint(n) - 1
		tr := ad.Pair(0, 0, 7&mask, 5&mask)
		err = setOperands(&tr, oldS, newS, 10, n, func(a, b uint64) map[string]bool { return ad.Inputs(a, b, false) })
		return ad.Circuit, tr, ad.OutputNames(), err
	case "mult":
		n, err := bitsWidth(bits, circuits.MinMultiplierBits, circuits.DefaultMultiplierBits)
		if err != nil {
			return nil, none, nil, err
		}
		m := circuits.PaperMultiplier(n)
		tr := m.VectorA()
		err = setOperands(&tr, oldS, newS, 16, n, m.Inputs)
		return m.Circuit, tr, m.ProductNets, err
	default:
		return nil, none, nil, fmt.Errorf("unknown circuit %q (tree|chain|adder|mult)", kind)
	}
}

// inputEdge reads -old and -new as the levels, 0 or 1, of the tree's
// or the chain's input; unset, they make a rising edge.
func inputEdge(oldS, newS string) (mtcmos.Transition, error) {
	level := [2]bool{false, true}
	for i, v := range []struct{ flag, s string }{{"old", oldS}, {"new", newS}} {
		switch v.s {
		case "":
		case "0", "1":
			level[i] = v.s == "1"
		default:
			return mtcmos.Transition{}, fmt.Errorf("%w: -%s %s: the input level must be 0 or 1", errUsage, v.flag, v.s)
		}
	}
	return circuits.InputEdge(level[0], level[1]), nil
}

// setOperands replaces the old and new vectors of tr with the operand
// pairs "a,b" that -old and -new give in base, where set; inputs
// encodes a pair. An operand must fit in bits; anything else is a
// usage error naming the flag.
func setOperands(tr *mtcmos.Transition, oldS, newS string, base, bits int, inputs func(a, b uint64) map[string]bool) error {
	for _, v := range []struct {
		flag, s string
		vec     *map[string]bool
	}{{"old", oldS, &tr.Old}, {"new", newS, &tr.New}} {
		if v.s == "" {
			continue
		}
		parts := strings.Split(v.s, ",")
		if len(parts) != 2 {
			return fmt.Errorf("%w: -%s %s: the vector must be 'a,b'", errUsage, v.flag, v.s)
		}
		var ab [2]uint64
		for i, p := range parts {
			x, err := strconv.ParseUint(strings.TrimSpace(p), base, 64)
			if err != nil || x>>uint(bits) != 0 {
				return fmt.Errorf("%w: -%s %s: operand %q is not a %d-bit base-%d number", errUsage, v.flag, v.s, p, bits, base)
			}
			ab[i] = x
		}
		*v.vec = inputs(ab[0], ab[1])
	}
	return nil
}

// writeCSVFile writes one waveform CSV into dir, creating it if
// needed; net names are sanitized into file names.
func writeCSVFile(dir, name string, write func(io.Writer) error) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	safe := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '-', r == '.':
			return r
		default:
			return '_'
		}
	}, name)
	f, err := os.Create(filepath.Join(dir, safe+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	if err := write(f); err != nil {
		return err
	}
	return f.Close()
}

// sortedKeys returns a map's keys in order, so nodes print the same way
// on every run.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func printVBS(w io.Writer, res *mtcmos.SwitchResult, outs []string, plot bool) {
	fmt.Fprintf(w, "events: %d  (switch-level breakpoints)\n", res.Events)
	for _, n := range outs {
		if d, ok := res.Delay(n); ok {
			fmt.Fprintf(w, "delay %-12s %.4g ns\n", n, d*1e9)
		}
	}
	if worst, worstNet, _ := res.MaxDelay(outs); worstNet != "" {
		fmt.Fprintf(w, "worst delay: %.4g ns on %s\n", worst*1e9, worstNet)
	} else {
		fmt.Fprintln(w, "no observed output toggled")
	}
	if res.VGnd != nil {
		fmt.Fprintf(w, "virtual ground peak: %.1f mV; sleep current peak: %.4g mA\n",
			res.PeakVx*1e3, res.PeakISleep*1e3)
	}
	if res.NoiseMarginLoss > 0 {
		fmt.Fprintf(w, "noise margin loss (reverse conduction): %.1f mV\n", res.NoiseMarginLoss*1e3)
	}
	for _, name := range sortedKeys(res.Waves) {
		pw := res.Waves[name]
		fmt.Fprintf(w, "wave %s: %d breakpoints, final %.3g V\n", name, len(pw.T), pw.Final())
		if plot {
			plotPWL(w, name, pw)
		}
	}
}

func plotPWL(w io.Writer, name string, p *mtcmos.PWL) {
	s := newSeries(name)
	end := p.End()
	for i := 0; i <= 60; i++ {
		t := end * float64(i) / 60
		s.Add(t*1e9, p.At(t))
	}
	fmt.Fprintln(w, s.Plot(64, 12))
}

// plotTrace plots about 60 of a trace's samples.
func plotTrace(w io.Writer, name string, tr *mtcmos.Trace) {
	s := newSeries(name)
	for i := 0; i < tr.Len(); i += 1 + tr.Len()/60 {
		s.Add(tr.T[i]*1e9, tr.V[i])
	}
	fmt.Fprintln(w, s.Plot(64, 12))
}

func newSeries(name string) *mtcmos.Series {
	s := &mtcmos.Series{Title: name, XLabel: "t_ns", YLabels: []string{"V"}}
	return s
}

func printSpice(w io.Writer, c *mtcmos.Circuit, res *mtcmos.SpiceResult, outs []string, traced string, plot bool) {
	fmt.Fprintf(w, "steps: %d  newton iterations: %d  device evals: %d\n", res.Steps, res.Iterations, res.Evals)
	for _, n := range outs {
		if d, err := res.Delay(n); err == nil {
			fmt.Fprintf(w, "delay %-12s %.4g ns\n", n, d*1e9)
		}
	}
	if worst, worstNet, err := res.MaxDelay(outs); err == nil {
		fmt.Fprintf(w, "worst delay: %.4g ns on %s\n", worst*1e9, worstNet)
	}
	if vg := res.VGndTrace(); vg != nil {
		pv, pt := vg.Peak(0, 1)
		fmt.Fprintf(w, "virtual ground peak: %.1f mV at %.3g ns\n", pv*1e3, pt*1e9)
	}
	if traced != "" {
		for _, n := range strings.Split(traced, ",") {
			tr := res.OutTrace(n)
			if tr == nil {
				continue
			}
			fmt.Fprintf(w, "trace %s: %d samples, final %.3g V\n", n, tr.Len(), tr.Final())
			if plot {
				plotTrace(w, n, tr)
			}
		}
	}
}

func runNetlist(ctx context.Context, w io.Writer, path string, tech *mtcmos.Tech, tstop, traced string, plot, nolint bool, maxSteps int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	nl, err := mtcmos.ParseNetlist(f)
	if err != nil {
		return err
	}
	if !nolint {
		if err := failOnLintErrors(lint.Run(nl, nil, tech), "deck "+path); err != nil {
			return err
		}
	}
	ts := 10e-9
	if tstop != "" {
		v, err := netlist.ParseValue(tstop)
		if err != nil {
			return err
		}
		ts = v
	}
	opts := mtcmos.EngineOptions{TStop: ts, SampleDT: 20e-12, Ctx: ctx, MaxSteps: maxSteps}
	if traced != "" {
		opts.Record = strings.Split(traced, ",")
	}
	res, err := mtcmos.SimulateNetlist(nl, tech, opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "steps: %d  newton iterations: %d\n", res.Steps, res.Iterations)
	for _, name := range sortedKeys(res.Traces) {
		tr := res.Traces[name]
		fmt.Fprintf(w, "node %-14s final %.4g V (%d samples)\n", name, tr.Final(), tr.Len())
		if plot {
			plotTrace(w, name, tr)
		}
	}
	return nil
}
