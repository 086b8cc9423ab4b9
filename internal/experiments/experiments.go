// Package experiments regenerates every table and figure of the
// paper's evaluation (see DESIGN.md section 4 for the index). Each
// experiment is a pure function from a Config to an Output holding
// tables and series; cmd/mtexp prints them, and the repository
// benchmark's paper workload times them.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"mtcmos/internal/circuit"
	"mtcmos/internal/circuits"
	"mtcmos/internal/core"
	"mtcmos/internal/report"
	"mtcmos/internal/sizing"
	"mtcmos/internal/spice"
)

// Config tunes experiment cost. The zero value reproduces every figure
// at publication scale except where the reference engine would take
// minutes; those default to a documented subset and scale up via the
// fields here.
type Config struct {
	// Fast skips the reference-engine (SPICE-class) columns entirely,
	// leaving switch-level results only.
	Fast bool

	// SpiceVectors caps how many reference-engine transients the big
	// vector sweeps run (Fig. 14, speedup). 0 means the per-experiment
	// default. The paper itself used 800 (Fig. 14) and 4096 (runtime
	// comparison); set accordingly if you have the hours.
	SpiceVectors int

	// MultiplierBits sizes the carry-save multiplier (default 8, the
	// paper's instance; smoke tests use 4).
	MultiplierBits int

	// AdderBits sizes the ripple-carry adder (default 3, the paper's).
	AdderBits int

	// Seed drives any sampling (default 1).
	Seed int64

	// Ctx cancels a run between simulator events; it is threaded into
	// every simulation an experiment performs (see DESIGN.md §8).
	Ctx context.Context

	// Workers bounds the parallel sweep executor (internal/sched) the
	// vector and W/L fan-outs run on: 0 means one worker per CPU, 1
	// forces serial execution. Every experiment produces byte-identical
	// tables and series regardless of the worker count (see DESIGN.md
	// §9); -j N on cmd/mtexp sets this.
	Workers int
}

// simOpts threads the run context into simulator options.
func (c Config) simOpts(o core.Options) core.Options {
	if o.Ctx == nil {
		o.Ctx = c.Ctx
	}
	return o
}

// sizingCfg is a sizing configuration over the given outputs (nil =
// the circuit's marked outputs) that carries the run context.
func (c Config) sizingCfg(outputs []string) sizing.Config {
	return sizing.Config{Outputs: outputs, Sim: c.simOpts(core.Options{})}
}

func (c Config) withDefaults() Config {
	if c.MultiplierBits == 0 {
		c.MultiplierBits = circuits.DefaultMultiplierBits
	}
	if c.AdderBits == 0 {
		c.AdderBits = circuits.DefaultAdderBits
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Output is the result of one experiment.
type Output struct {
	ID     string
	Title  string
	Tables []*report.Table
	Series []*report.Series
	Notes  []string
}

func (o *Output) note(format string, args ...any) {
	o.Notes = append(o.Notes, fmt.Sprintf(format, args...))
}

// Experiment couples an ID to its runner.
type Experiment struct {
	ID    string
	Desc  string
	Run   func(Config) (*Output, error)
	Paper string // which paper artifact it regenerates
}

// Registry lists every experiment in paper order. Each runner first
// checks MultiplierBits and AdderBits against the generators' minimums
// (circuits.Min*) and refuses a negative SpiceVectors, so a bad
// setting is an error, not a panic.
func Registry() []Experiment {
	reg := []Experiment{
		{"fig5", "inverter-tree output and virtual-ground transients vs sleep W/L", Fig5, "Fig. 5"},
		{"fig7", "8x8 multiplier delay vs sleep W/L for vectors A and B", Fig7, "Fig. 7"},
		{"table1", "multiplier delay degradation at selected W/L; per-vector 5% sizing", Table1, "Table 1"},
		{"fig10", "inverter-tree delay vs W/L: reference engine vs switch-level", Fig10, "Fig. 10"},
		{"fig11", "ground-bounce transient: reference engine vs stepwise switch-level", Fig11, "Fig. 11"},
		{"fig13", "3-bit adder delay vs W/L: reference engine vs switch-level", Fig13, "Fig. 13"},
		{"fig14", "per-vector MTCMOS degradation spread on the 3-bit adder", Fig14, "Fig. 14"},
		{"speedup", "exhaustive 4096-vector runtime: switch-level vs reference engine", Speedup, "Sec. 6.2"},
		{"peak", "peak-current sizing vs delay-target sizing on the multiplier", Peak, "Sec. 4"},
		{"widths", "sum-of-widths vs peak-current vs delay-target sizes", Widths, "Sec. 2"},
		{"cx", "virtual-ground parasitic capacitance ablation", AblationCx, "Sec. 2.2"},
		{"reverse", "reverse-conduction ablation", AblationReverse, "Sec. 2.3"},
		{"body", "body-effect ablation in the switch-level model", AblationBody, "Sec. 5.3"},
		{"hier", "hierarchical sizing via mutually exclusive discharge (DAC'98 extension)", Hier, "extension"},
		{"accuracy", "input-slope and triode model refinements vs the reference engine", Accuracy, "Sec. 5.3"},
		{"standby", "sleep-mode leakage and sleep-device overhead (reference-engine DC)", StandbyExp, "Sec. 1/2.1"},
		{"screen", "vector-space narrowing: static screens vs the switch-level tool", Screen, "Sec. 5/7"},
		{"lint", "static-analysis audit of the benchmark circuits and their expanded decks", LintAudit, "tooling"},
		{"sca", "static level bound vs sum-of-widths vs simulated discharge width; CCC partition", SCA, "Sec. 2"},
		{"refine", "SAT-proven mutual-exclusion refinement of the static level bound", Refine, "Sec. 2"},
	}
	for i := range reg {
		run := reg[i].Run
		reg[i].Run = func(cfg Config) (*Output, error) {
			if err := errors.Join(
				circuits.CheckWidth("MultiplierBits", cfg.MultiplierBits, circuits.MinMultiplierBits),
				circuits.CheckWidth("AdderBits", cfg.AdderBits, circuits.MinAdderBits),
				checkSpiceVectors(cfg.SpiceVectors),
			); err != nil {
				return nil, fmt.Errorf("experiments: %w", err)
			}
			return run(cfg)
		}
	}
	return reg
}

// Find returns the experiment with the given ID.
func Find(id string) (Experiment, error) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q (try: %s)", id, ids())
}

func ids() string {
	var s []string
	for _, e := range Registry() {
		s = append(s, e.ID)
	}
	sort.Strings(s)
	return fmt.Sprint(s)
}

// --- shared measurement helpers ---

// checkSpiceVectors refuses a negative reference-engine vector budget;
// 0 stands for the per-experiment default.
func checkSpiceVectors(v int) error {
	if v < 0 {
		return fmt.Errorf("SpiceVectors %d: the vector count must be at least 0 (0 = default)", v)
	}
	return nil
}

// vbsDelay measures the worst settling delay over the outputs with the
// switch-level simulator.
func vbsDelay(cfg Config, c *circuit.Circuit, stim circuit.Stimulus, opts core.Options) (float64, *core.Result, error) {
	res, err := core.Simulate(c, stim, cfg.simOpts(opts))
	if err != nil {
		return 0, nil, err
	}
	d, _, ok := res.MaxDelay(c.OutputNames())
	if !ok {
		return 0, res, fmt.Errorf("experiments: no output toggled")
	}
	return d, res, nil
}

// spiceDelay measures the worst settling delay over the outputs with
// the reference engine (spice.RunResult.MaxDelay: the last Vdd/2
// crossing after the edge, as the switch-level engine measures it).
// TStop must comfortably cover the transition.
func spiceDelay(cfg Config, c *circuit.Circuit, stim circuit.Stimulus, tstop float64) (float64, *spice.RunResult, error) {
	res, err := spice.Run(c, stim, spice.RunOptions{Options: spice.Options{TStop: tstop, Ctx: cfg.Ctx}})
	if err != nil {
		return 0, nil, err
	}
	d, _, err := res.MaxDelay(c.OutputNames())
	return d, res, err
}
