// Package mtcmos is a toolkit for sizing the high-Vt sleep transistors
// of Multi-Threshold CMOS (MTCMOS) circuits, reproducing Kao,
// Chandrakasan and Antoniadis, "Transistor Sizing Issues and Tool For
// Multi-Threshold CMOS Technology", DAC 1997.
//
// The toolkit provides:
//
//   - a gate-level circuit model with an MTCMOS virtual-ground rail
//     (Circuit, NewCircuit, and the generator functions InverterTree,
//     RippleCarryAdder, CarrySaveMultiplier matching the paper's
//     benchmark circuits);
//   - the paper's variable-breakpoint switch-level simulator
//     (Simulate), which computes MTCMOS delays as a function of input
//     vector and sleep-transistor size orders of magnitude faster than
//     a transistor-level transient;
//   - a SPICE-class reference transient engine over flat transistor
//     netlists (SimulateSpice, ParseNetlist) for detailed verification;
//   - sleep-transistor sizing methods (SizeForDelayTarget,
//     SizeForPeakCurrent, SumOfWidths) and power/leakage analysis
//     (AnalyzePower);
//   - every figure and table of the paper's evaluation as a runnable
//     experiment (Experiments, RunExperiment).
//
// # Quick start
//
//	tech := mtcmos.Tech07()
//	tree := mtcmos.InverterTree(&tech, 3, 3, 50e-15) // paper Fig. 4
//	tree.SleepWL = 8                                 // sleep device W/L
//	res, err := mtcmos.Simulate(tree, mtcmos.Stimulus{
//		Old:   map[string]bool{"in": false},
//		New:   map[string]bool{"in": true},
//		TEdge: 1e-9, TRise: 50e-12,
//	}, mtcmos.SwitchOptions{})
//	if err != nil { ... }
//	d, _ := res.Delay("s3_0")
//	fmt.Println("delay:", d, "bounce:", res.PeakVx)
//
// See the examples directory for complete programs.
package mtcmos

import (
	"context"
	"io"

	"mtcmos/internal/circuit"
	"mtcmos/internal/circuits"
	"mtcmos/internal/core"
	"mtcmos/internal/experiments"
	"mtcmos/internal/hierarchy"
	"mtcmos/internal/lint"
	"mtcmos/internal/mosfet"
	"mtcmos/internal/netlist"
	"mtcmos/internal/power"
	"mtcmos/internal/report"
	"mtcmos/internal/sca"
	"mtcmos/internal/sched"
	"mtcmos/internal/simerr"
	"mtcmos/internal/sizing"
	"mtcmos/internal/spice"
	"mtcmos/internal/vectors"
	"mtcmos/internal/wave"
)

// --- Technology ---

// Tech holds the per-process device parameters shared by every model;
// see Tech07 and Tech03 for the paper's two nodes.
type Tech = mosfet.Tech

// Tech07 returns the 0.7um technology of the paper's inverter-tree and
// adder experiments (Vdd=1.2V, Vtn=0.35, sleep Vt=0.75).
func Tech07() Tech { return mosfet.Tech07() }

// Tech03 returns the 0.3um technology of the paper's 8x8 multiplier
// experiment (Vdd=1.0V, Vtn=0.2, sleep Vt=0.7).
func Tech03() Tech { return mosfet.Tech03() }

// SleepResistance returns the linear-resistor approximation of an ON
// high-Vt NMOS sleep transistor of the given W/L (paper section 2.1).
func SleepResistance(t *Tech, wl float64) (float64, error) {
	return mosfet.SleepResistance(t, wl)
}

// --- Circuits ---

// Circuit is a combinational gate-level circuit; set SleepWL > 0 to
// gate its pulldown rail with an NMOS sleep transistor (MTCMOS mode)
// and VGndCap to add virtual-ground parasitic capacitance.
type Circuit = circuit.Circuit

// Gate is one instance of a library gate inside a Circuit.
type Gate = circuit.Gate

// Net is a named signal inside a Circuit.
type Net = circuit.Net

// GateKind identifies a gate in the library (Inv, Nand2, ...,
// MirrorCarry, MirrorSum).
type GateKind = circuit.Kind

// The gate library. MirrorCarry/MirrorSum are the complex gates of the
// 28-transistor mirror full adder used by the paper's benchmarks.
const (
	Inv         = circuit.Inv
	Buf         = circuit.Buf
	Nand2       = circuit.Nand2
	Nand3       = circuit.Nand3
	Nor2        = circuit.Nor2
	Nor3        = circuit.Nor3
	And2        = circuit.And2
	Or2         = circuit.Or2
	Xor2        = circuit.Xor2
	Xnor2       = circuit.Xnor2
	Aoi21       = circuit.Aoi21
	Oai21       = circuit.Oai21
	MirrorCarry = circuit.MirrorCarry
	MirrorSum   = circuit.MirrorSum
)

// NewCircuit returns an empty circuit over the given technology; add
// primary inputs with Input, gates with AddGate, observed outputs with
// MarkOutput, and explicit loads with SetLoad.
func NewCircuit(name string, tech *Tech) *Circuit { return circuit.New(name, tech) }

// Stimulus describes one input-vector transition: inputs hold Old
// until TEdge then ramp to New over TRise.
type Stimulus = circuit.Stimulus

// InverterTree builds the paper's Fig. 4 clock-distribution tree; the
// paper instance is InverterTree(&tech, 3, 3, 50e-15).
func InverterTree(tech *Tech, levels, branch int, load float64) *Circuit {
	return circuits.InverterTree(tech, levels, branch, load)
}

// InverterChain builds a linear inverter chain for calibration.
func InverterChain(tech *Tech, n int, load float64) *Circuit {
	return circuits.InverterChain(tech, n, load)
}

// Adder is a generated mirror ripple-carry adder with operand helpers.
type Adder = circuits.Adder

// RippleCarryAdder builds the paper's Fig. 12 N-bit mirror adder
// (28 transistors per bit).
func RippleCarryAdder(tech *Tech, bits int, load float64) *Adder {
	return circuits.RippleCarryAdder(tech, bits, load)
}

// Multiplier is a generated carry-save array multiplier with operand
// helpers; ProductNets names the product-bit nets in weight order.
type Multiplier = circuits.Multiplier

// CarrySaveMultiplier builds the paper's Fig. 6 NxN carry-save array
// multiplier (the paper's instance is 8x8).
func CarrySaveMultiplier(tech *Tech, n int, load float64) *Multiplier {
	return circuits.CarrySaveMultiplier(tech, n, load)
}

// SelectTree builds the N-bit two-way decoded datapath whose branches
// are enabled by complementary selects — the canonical structure whose
// cross-branch discharges the mutual-exclusion refinement
// (RefineLevels) can prove exclusive.
func SelectTree(tech *Tech, bits int, load float64) *Circuit {
	return circuits.SelectTree(tech, bits, load)
}

// --- Switch-level simulation (the paper's tool) ---

// SwitchOptions configures the variable-breakpoint switch-level
// simulator.
type SwitchOptions = core.Options

// SwitchResult reports waveforms, Vdd/2 crossing times, virtual-ground
// bounce and sleep-device current for one simulated transition.
type SwitchResult = core.Result

// Simulate runs the paper's variable-breakpoint switch-level simulator
// on one input-vector transition. With SleepWL == 0 the circuit is
// simulated as plain CMOS — the baseline for "% degradation due to
// MTCMOS". For many transitions on one circuit, compile once with
// CompileCircuit and use SimulateBatch/SimulateSweep instead.
func Simulate(c *Circuit, stim Stimulus, opts SwitchOptions) (*SwitchResult, error) {
	return core.Simulate(c, stim, opts)
}

// CompiledCircuit is a circuit prepared once for repeated switch-level
// runs: topology, device characterization and sleep resistances are
// derived at compile time, and per-run scratch state is pooled. It is
// immutable and safe for concurrent runs; vary the sleep size per run
// with RunWL/RunDomains rather than mutating the Circuit.
type CompiledCircuit = core.Compiled

// CompileCircuit prepares a circuit for run-many use, snapshotting its
// sleep-domain configuration (SleepWL, VGndCap) as compiled.
func CompileCircuit(c *Circuit) (*CompiledCircuit, error) { return core.Compile(c) }

// BatchOptions configures the parallel batch entry points.
type BatchOptions struct {
	// Workers bounds the worker pool: 0 means one worker per CPU, 1
	// forces serial execution. Results are identical for any value.
	Workers int
	// Sim is the per-run simulator configuration; its Ctx cancels the
	// whole batch.
	Sim SwitchOptions
}

// SimulateBatch runs one switch-level transient per stimulus on the
// parallel sweep executor. Results come back in input order; on
// failure the error belongs to the lowest-index failing stimulus, and
// the corresponding result slot carries any partial result.
func SimulateBatch(cp *CompiledCircuit, stims []Stimulus, opts BatchOptions) ([]*SwitchResult, error) {
	return sched.Map(opts.Sim.Ctx, opts.Workers, len(stims), func(i int) (*SwitchResult, error) {
		return cp.Run(stims[i], opts.Sim)
	})
}

// SimulateSweep runs one stimulus at each sleep W/L (0 = plain CMOS)
// on the parallel sweep executor — the W/L-axis fan-out behind the
// paper's delay-vs-size figures. Results come back in wls order.
func SimulateSweep(cp *CompiledCircuit, wls []float64, stim Stimulus, opts BatchOptions) ([]*SwitchResult, error) {
	return sched.Map(opts.Sim.Ctx, opts.Workers, len(wls), func(i int) (*SwitchResult, error) {
		return cp.RunWL(wls[i], stim, opts.Sim)
	})
}

// --- Reference transient engine ---

// SpiceOptions configures the SPICE-class reference engine.
type SpiceOptions = spice.RunOptions

// SpiceResult holds reference-engine traces and delay measurements.
// Its Delay and MaxDelay report an output's settling delay, its last
// Vdd/2 crossing after the input edge, exactly as SwitchResult does;
// a glitching output counts from its last crossing, not its first.
type SpiceResult = spice.RunResult

// SimulateSpice expands the circuit to a flat transistor netlist and
// runs the reference transient engine on it.
func SimulateSpice(c *Circuit, stim Stimulus, opts SpiceOptions) (*SpiceResult, error) {
	return spice.Run(c, stim, opts)
}

// StandbyResult reports the reference-engine sleep-mode analysis:
// where the virtual ground floats and the standby-vs-active leakage.
type StandbyResult = spice.StandbyResult

// Standby computes an MTCMOS circuit's sleep-mode operating point with
// the reference engine's full-Newton DC solver: the virtual-ground
// float voltage and the leakage reduction the sleep device buys.
func Standby(c *Circuit, inputs map[string]bool) (*StandbyResult, error) {
	return spice.Standby(c, inputs)
}

// StandbyContext is Standby under a context that bounds its warm-up
// transients and DC solves; once it fires, the analysis stops with
// ErrBudget (a deadline or budget cause) or ErrCancelled.
func StandbyContext(ctx context.Context, c *Circuit, inputs map[string]bool) (*StandbyResult, error) {
	return spice.StandbyContext(ctx, c, inputs)
}

// Netlist is a parsed SPICE-dialect deck; see ParseNetlist.
type Netlist = netlist.Netlist

// ParseNetlist reads a deck in the toolkit's SPICE dialect (M/C/R/V
// cards, .subckt/.ends; see package documentation in
// internal/netlist).
func ParseNetlist(r io.Reader) (*Netlist, error) { return netlist.Parse(r) }

// SimulateNetlist runs the reference engine directly on a parsed deck.
func SimulateNetlist(nl *Netlist, tech *Tech, opts spice.Options) (*spice.Result, error) {
	flat, err := nl.Flatten()
	if err != nil {
		return nil, err
	}
	return spice.Simulate(flat, tech, opts)
}

// EngineOptions configures a raw netlist transient (no circuit-level
// conveniences).
type EngineOptions = spice.Options

// --- Failure taxonomy and resilience ---

// Typed failure classes returned (wrapped) by both simulators and the
// sizing search; test with errors.Is. See DESIGN.md §8.
var (
	// ErrNoConvergence: the Newton step solver gave up after the whole
	// recovery ladder was exhausted.
	ErrNoConvergence = simerr.ErrNoConvergence
	// ErrNumerical: a NaN/Inf poisoned a node update (failed fast).
	ErrNumerical = simerr.ErrNumerical
	// ErrBudget: a step or event cap (MaxSteps, MaxEvents) ran out, or
	// the run's context passed its deadline (the wall-clock budget,
	// e.g. -timeout).
	ErrBudget = simerr.ErrBudget
	// ErrCancelled: the run's context was cancelled (e.g. Ctrl-C).
	ErrCancelled = simerr.ErrCancelled
)

// SimError is the structured simulation failure: a class above plus
// diagnostics (node, simulated time, timestep, iteration counts).
// Runtime failures return it alongside the partial result.
type SimError = simerr.Error

// IsRecoverable reports whether a failure is worth retrying with
// different options (budgets, recovery ladder) rather than a
// configuration error or a deliberate cancellation.
func IsRecoverable(err error) bool { return simerr.IsRecoverable(err) }

// RecoveryConfig can disable the reference engine's convergence-recovery
// ladder (EngineOptions.Recovery); the rung strengths are fixed.
type RecoveryConfig = spice.Recovery

// RecoveryStats counts, per run, how often each recovery rung fired
// and how many failing steps were rescued.
type RecoveryStats = spice.RecoveryStats

// RecoveryRung identifies a rung of the convergence-recovery ladder in
// escalation order.
type RecoveryRung = spice.Rung

// The ladder rungs: timestep back-off, damped Newton, Gmin
// conductance stepping, source ramping.
const (
	RungNone       = spice.RungNone
	RungBackoff    = spice.RungBackoff
	RungDamping    = spice.RungDamping
	RungGmin       = spice.RungGmin
	RungSourceRamp = spice.RungSourceRamp
)

// EvalInfo describes one device evaluation to an Intercept hook.
type EvalInfo = spice.EvalInfo

// Intercept observes/modifies every device-current evaluation of the
// reference engine (EngineOptions.Intercept); the fault-injection
// harness in internal/faultinject is built on it.
type Intercept = spice.Intercept

// --- Static analysis (linting) ---

// Diagnostic is one static-analysis finding: a stable MTxxx code, a
// severity, the device or node it concerns, and a message.
type Diagnostic = lint.Diagnostic

// LintSeverity ranks a diagnostic; see LintInfo, LintWarn, LintError.
type LintSeverity = lint.Severity

// Diagnostic severities, ordered: error findings make a deck unfit to
// simulate, warn findings are suspicious but simulable, info findings
// are advisory.
const (
	LintInfo  = lint.Info
	LintWarn  = lint.Warn
	LintError = lint.Error
)

// LintRule is one registered static-analysis check; see LintRules.
type LintRule = lint.Rule

// LintRules returns the card-level rule registry (code, severity,
// description) in code order.
func LintRules() []LintRule { return lint.Rules() }

// LintGraphRules returns the graph-backed rule registry (MT018+): the
// rules that run over the static circuit analysis.
func LintGraphRules() []LintRule { return lint.GraphRules() }

// Lint statically analyzes a deck and/or a gate-level circuit before
// simulation: connectivity (floating nodes, missing DC paths,
// duplicate devices), electrical sanity (non-positive geometry,
// off-window dimensions, non-monotone PWL sources) and MTCMOS
// structure (gated rails with no sleep transistor, low-Vt sleep
// devices). Either of nl and c may be nil; tech enables the
// process-window checks. Findings come back sorted errors-first; see
// cmd/mtlint for the command-line front end.
func Lint(nl *Netlist, c *Circuit, tech *Tech) []Diagnostic {
	return lint.Run(nl, c, tech)
}

// LintAll is Lint with the graph-backed rules (MT018+) optionally
// enabled: channel-connected-component structure, statically
// always-on VDD→GND paths, missing pull networks, deep pass-gate
// chains, and the static level bound check.
func LintAll(nl *Netlist, c *Circuit, tech *Tech, graph bool) []Diagnostic {
	return lint.RunAll(nl, c, tech, graph)
}

// LintVectors validates one input-vector transition against a
// circuit's primary inputs (the MT017 rule).
func LintVectors(c *Circuit, old, new map[string]bool) []Diagnostic {
	return lint.CheckVectors(c, old, new)
}

// LintHasErrors reports whether any finding is error-severity.
func LintHasErrors(diags []Diagnostic) bool { return lint.HasErrors(diags) }

// --- Static circuit analysis ---

// GraphAnalysis is the static circuit analysis of a flattened deck:
// channel-connected components, rail classification, always-on
// VDD→GND paths, floating outputs, and deep conducting paths.
type GraphAnalysis = sca.Analysis

// GraphConfig tunes the static circuit analysis (series-stack depth
// limit).
type GraphConfig = sca.Config

// AnalyzeGraph flattens a deck and runs the static circuit analysis
// over it.
func AnalyzeGraph(nl *Netlist, cfg GraphConfig) (*GraphAnalysis, error) {
	flat, err := nl.Flatten()
	if err != nil {
		return nil, err
	}
	return sca.Analyze(flat, cfg), nil
}

// PathProof is the path-condition SAT proof over a GraphAnalysis:
// proven rail shorts (always-on and vector-dependent) with witness
// vectors, floating-output findings with reaching vectors, and
// refuted findings with their unsatisfiable cores. Obtain one with
// ProvePaths (or GraphAnalysis.Prove).
type PathProof = sca.Proof

// ProvenShort is one proven VDD→GND path: its rails, devices, path
// condition, and a witness input vector (Always means it conducts
// under every vector).
type ProvenShort = sca.ProvenShort

// ProvenFloating is a floating-output finding whose floating state the
// solver reached, with the witness vector that exhibits it.
type ProvenFloating = sca.ProvenFloating

// InfeasibleFloating is a floating-output finding the solver refuted:
// the pull paths in Core cannot all be off at once.
type InfeasibleFloating = sca.InfeasibleFloating

// PathWitness is an input vector as net=value assignments.
type PathWitness = sca.Witness

// ProofStats counts the proof's solver work (variables, clauses,
// queries, inconclusive budgeted queries, truncated enumerations).
type ProofStats = sca.ProofStats

// ProvePaths flattens a deck, runs the static circuit analysis, and
// proves or refutes its conditional DC paths with the path-condition
// SAT engine. mtlint -prove is the command-line front end.
func ProvePaths(nl *Netlist, cfg GraphConfig) (*GraphAnalysis, *PathProof, error) {
	a, err := AnalyzeGraph(nl, cfg)
	if err != nil {
		return nil, nil, err
	}
	return a, a.Prove(), nil
}

// LintOptions selects lint's optional passes: the graph-backed rules
// (Graph), the path-condition prover (Prove, implies Graph), and
// reporting of prover-suppressed findings (Verbose).
type LintOptions = lint.Options

// LintWith is Lint with explicit pass selection; LintAll is the
// Graph-only shorthand.
func LintWith(nl *Netlist, c *Circuit, tech *Tech, opts LintOptions) []Diagnostic {
	return lint.RunWith(nl, c, tech, opts)
}

// CircuitLevels is the topological levelization of a gate-level
// circuit with per-gate arrival windows.
type CircuitLevels = sca.Levels

// Levelize computes a circuit's topological levelization; it fails on
// combinational cycles.
func Levelize(c *Circuit) (*CircuitLevels, error) { return sca.Levelize(c) }

// StaticLevelBound returns the circuit's static per-level
// simultaneous-discharge width bound: the largest summed pulldown W/L
// whose arrival windows share one unit-delay level. It sits between
// the measured simultaneous-discharge width and the sum-of-widths.
func StaticLevelBound(c *Circuit) (float64, error) { return sca.StaticLevelBound(c) }

// ExclusionConfig tunes the SAT-backed mutual-exclusion refinement
// (pair and conflict budgets, prefilter vectors, worker fan-out).
type ExclusionConfig = sca.ExclConfig

// ExclusionStats summarizes one refinement run: pairs considered,
// refuted by simulation, proven by SAT, replay validations, and every
// budget truncation (truncated work always degrades toward the
// unrefined bound, never below soundness).
type ExclusionStats = sca.ExclusionStats

// ExclusivePair is one proven mutual exclusion between two gates.
type ExclusivePair = sca.ExclusivePair

// LevelRefinement is the full result of RefineLevels: per-level static
// and refined widths, the proven exclusions, and the proof statistics.
type LevelRefinement = sca.Refinement

// RefineLevels proves mutual exclusions between window-sharing gates
// with a two-frame SAT encoding over the circuit's expanded transistor
// deck and recomputes the per-level widths with exclusive gates
// contributing max instead of sum.
func RefineLevels(c *Circuit, cfg ExclusionConfig) (*LevelRefinement, error) {
	return sca.RefineLevels(c, cfg)
}

// RefinedLevelBound is the refined counterpart of StaticLevelBound:
//
//	simulated width ≤ RefinedLevelBound ≤ StaticLevelBound ≤ SumOfWidths
func RefinedLevelBound(c *Circuit) (float64, error) { return sca.RefinedLevelBound(c) }

// --- Sizing ---

// Transition is an input-vector pair evaluated during sizing.
type Transition = sizing.Transition

// SizingConfig carries common sizing inputs (observed outputs, edge
// shape, simulator options). Sim.Ctx cancels the whole search and is
// its wall-clock budget.
type SizingConfig = sizing.Config

// SizingResult reports the outcome of SizeForDelayTarget.
type SizingResult = sizing.DelayTargetResult

// PeakSizing reports the outcome of SizeForPeakCurrent.
type PeakSizing = sizing.PeakCurrentResult

// SumOfWidths returns the naive sum-of-internal-widths sleep size the
// paper calls "unnecessarily large" (in W/L units).
func SumOfWidths(c *Circuit) float64 { return sizing.SumOfWidths(c) }

// Degradation returns the fractional slowdown at sleep size wl vs the
// plain-CMOS baseline over the worst of the transitions.
func Degradation(c *Circuit, cfg SizingConfig, trs []Transition, wl float64) (float64, error) {
	return sizing.Degradation(c, cfg, trs, wl)
}

// SizeForDelayTarget finds the smallest sleep W/L whose worst-case
// degradation stays within target (e.g. 0.05 for the paper's 5%).
func SizeForDelayTarget(c *Circuit, cfg SizingConfig, trs []Transition, target, hi float64) (*SizingResult, error) {
	return sizing.DelayTarget(c, cfg, trs, target, hi)
}

// SizeForPeakCurrent applies the conservative peak-current method of
// paper section 4: hold the worst instantaneous discharge current to
// maxBounce volts across the sleep device.
func SizeForPeakCurrent(c *Circuit, cfg SizingConfig, trs []Transition, maxBounce float64) (*PeakSizing, error) {
	return sizing.PeakCurrent(c, cfg, trs, maxBounce)
}

// StaticSizing reports the static level-bound estimate (per-level
// widths, the bound, and the sum-of-widths it improves on).
type StaticSizing = sizing.StaticLevelResult

// StaticSizingOption configures SizeForStaticLevel; see WithRefinement.
type StaticSizingOption = sizing.StaticLevelOption

// WithRefinement asks SizeForStaticLevel to additionally run the
// SAT-backed mutual-exclusion refinement and fill the result's
// Refined* fields.
func WithRefinement(cfg ExclusionConfig) StaticSizingOption { return sizing.Refine(cfg) }

// SizeForStaticLevel computes the static level-bound sleep size from
// topology alone — no vectors, no simulation.
func SizeForStaticLevel(c *Circuit, opts ...StaticSizingOption) (*StaticSizing, error) {
	return sizing.StaticLevel(c, opts...)
}

// SimultaneousWidth measures, with the switch-level simulator, the
// worst instantaneous simultaneous-discharge width (Σ W/L) over the
// transitions — the quantity the static estimates bound.
func SimultaneousWidth(c *Circuit, cfg SizingConfig, trs []Transition) (float64, error) {
	return sizing.SimultaneousWidth(c, cfg, trs)
}

// --- Hierarchical sizing (DAC'98 follow-up extension) ---

// HierarchyConfig controls mutual-exclusion analysis: the block
// partition, bounce budget and edge shape.
type HierarchyConfig = hierarchy.Config

// HierarchyPlan is the hierarchical sizing outcome: groups of
// mutually-exclusive blocks, per-group sleep sizes, and the comparison
// against single-device and per-block sizing.
type HierarchyPlan = hierarchy.Plan

// HierarchyTransition is an input-vector pair analyzed for discharge
// overlap.
type HierarchyTransition = hierarchy.Transition

// PartitionByLevel groups gates by topological depth into nLevels
// blocks.
func PartitionByLevel(c *Circuit, nLevels int) ([][]int, error) {
	return hierarchy.PartitionByLevel(c, nLevels)
}

// PartitionByPrefix groups gates by a name prefix extracted with fn.
func PartitionByPrefix(c *Circuit, fn func(gateName string) string) [][]int {
	return hierarchy.PartitionByPrefix(c, fn)
}

// AnalyzeHierarchy measures per-block discharge windows with the
// switch-level simulator, merges blocks with mutually exclusive
// discharge patterns, and sizes each group's sleep device.
func AnalyzeHierarchy(c *Circuit, cfg HierarchyConfig, trs []HierarchyTransition) (*HierarchyPlan, error) {
	return hierarchy.Analyze(c, cfg, trs)
}

// ApplyHierarchy configures the circuit's sleep domains per the plan.
func ApplyHierarchy(c *Circuit, cfg HierarchyConfig, plan *HierarchyPlan) error {
	return hierarchy.Apply(c, cfg, plan)
}

// SleepDomain is one virtual-ground rail of a multi-domain circuit.
type SleepDomain = circuit.Domain

// --- Power ---

// PowerSummary aggregates switching, leakage and sleep-overhead
// figures for a circuit.
type PowerSummary = power.Summary

// AnalyzePower computes the power summary of a circuit (sleep-mode
// figures require SleepWL > 0).
func AnalyzePower(c *Circuit) (*PowerSummary, error) { return power.Analyze(c) }

// SwitchingPower returns the classic a*C*Vdd^2*f dynamic power (paper
// Eq. 1).
func SwitchingPower(activity, totalCap, vdd, fclk float64) float64 {
	return power.Switching(activity, totalCap, vdd, fclk)
}

// --- Vectors ---

// VectorSpace enumerates input-vector transitions for worst-case
// analysis (exhaustive, sampled, or greedy search).
type VectorSpace = vectors.Space

// NewVectorSpace builds a transition space over named input bits.
func NewVectorSpace(names ...string) (*VectorSpace, error) { return vectors.NewSpace(names...) }

// BitNames generates indexed input names prefix0..prefix<n-1>.
func BitNames(prefix string, n int) []string { return vectors.BitNames(prefix, n) }

// --- Experiments ---

// ExperimentConfig tunes experiment cost (fast mode, circuit sizes,
// reference-engine vector budgets).
type ExperimentConfig = experiments.Config

// ExperimentOutput holds an experiment's tables, series and notes.
type ExperimentOutput = experiments.Output

// Experiment couples an experiment ID to its runner and the paper
// artifact it regenerates.
type Experiment = experiments.Experiment

// Experiments lists every paper figure/table reproduction in paper
// order.
func Experiments() []Experiment { return experiments.Registry() }

// RunExperiment runs one experiment by ID ("fig5", "table1", ...).
func RunExperiment(id string, cfg ExperimentConfig) (*ExperimentOutput, error) {
	e, err := experiments.Find(id)
	if err != nil {
		return nil, err
	}
	return e.Run(cfg)
}

// --- Reporting and waveforms ---

// Table is an aligned-ASCII/CSV table.
type Table = report.Table

// Series is a shared-X numeric dataset with table and ASCII-plot
// rendering.
type Series = report.Series

// PWL is a piecewise-linear waveform (switch-level outputs).
type PWL = wave.PWL

// Trace is a sampled waveform (reference-engine outputs).
type Trace = wave.Trace
