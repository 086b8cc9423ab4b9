// Package sca is the toolkit's graph-based static circuit analyzer.
// Where internal/lint's card-level rules inspect one device at a time,
// this package builds real dataflow structure over a flattened
// transistor netlist and the gate-level IR, and makes structural
// claims no per-card rule can:
//
//   - channel-connected-component (CCC) partitioning: nets are grouped
//     by source/drain (channel) connectivity, split at supply and
//     source-driven rails — the unit at which standard-cell flows
//     screen topologies before characterization;
//   - per-CCC DC-path enumeration: each logic output is classified by
//     the pull-up and pull-down networks that can drive it, and the
//     analyzer detects statically-unavoidable VDD→GND shorts (every
//     device on the path is tied on), outputs missing a pull network
//     entirely, and conducting paths deeper than a series-stack limit
//     (pass-gate chains);
//   - topological levelization of the gate IR, from which the static
//     per-level simultaneous-discharge width bound is derived (see
//     levels.go): only gates that can discharge at the same time
//     determine the sleep-transistor width the paper sizes, so
//     max-over-levels of Σ W/L sits between the paper's sum-of-widths
//     estimate and the simulated requirement.
//
// internal/lint exposes the findings as the MT018+ graph rules,
// cmd/mtlint enables them with -graph, and internal/sizing turns the
// level bound into the "static-level" estimator of cmd/mtsize.
package sca

import (
	"sort"

	"mtcmos/internal/netlist"
)

// Config tunes the analyzer.
type Config struct {
	// MaxStackDepth is the series-device limit beyond which a
	// conducting path from a logic output to its rail is reported as a
	// pass-gate chain / deep stack (default 8: the library's deepest
	// legitimate stack is 4, plus headroom for a gated rail hop).
	MaxStackDepth int

	// MaxPathsPerOutput caps the pull-up / pull-down paths the prover
	// enumerates per logic output per direction (default 64). Beyond
	// the cap the path-condition encoding is incomplete and the prover
	// records the output as only partially modeled.
	MaxPathsPerOutput int

	// MaxShortPaths caps the candidate rail-to-rail paths enumerated
	// per component for the conditional-short check (default 256).
	MaxShortPaths int
}

func (c Config) withDefaults() Config {
	if c.MaxStackDepth <= 0 {
		c.MaxStackDepth = 8
	}
	if c.MaxPathsPerOutput <= 0 {
		c.MaxPathsPerOutput = 64
	}
	if c.MaxShortPaths <= 0 {
		c.MaxShortPaths = 256
	}
	return c
}

// RailKind classifies a source-driven node (a partition split point).
type RailKind int

const (
	// RailNone marks an ordinary (non-rail) net.
	RailNone RailKind = iota
	// RailLow is a node held at a constant low potential (ground, or a
	// DC source resolving to ~0 V).
	RailLow
	// RailHigh is a node held at a constant supply-level potential.
	RailHigh
	// RailSignal is a source-driven node that is time-varying (PWL,
	// PULSE) or at a mid-rail DC level: a split point, but neither
	// supply for DC-path purposes.
	RailSignal
)

// String names the rail kind.
func (k RailKind) String() string {
	switch k {
	case RailLow:
		return "low"
	case RailHigh:
		return "high"
	case RailSignal:
		return "signal"
	default:
		return "none"
	}
}

// Component is one channel-connected component: the set of non-rail
// nets joined by MOS channels (and resistors, which conduct DC), with
// the devices whose channels live inside it and the rails they touch.
type Component struct {
	ID      int
	Nets    []string // sorted non-rail member nets
	Devices []string // sorted names of member MOS devices and resistors
	Rails   []string // sorted rail nodes touched by member devices
	Outputs []string // member nets that are logic outputs (gate inputs elsewhere, or cap-loaded)
}

// ShortPath is a statically-unavoidable DC path from a high rail to a
// low rail: every device along it is tied on (NMOS gate at a high
// rail, PMOS gate at a low rail, or a resistor).
type ShortPath struct {
	Component int      // component ID, or -1 for a single rail-to-rail device
	From, To  string   // high rail and low rail
	Devices   []string // conducting devices in path order
}

// FloatingOutput is a logic output missing a pull network entirely:
// no conducting path (through devices not statically tied off) can
// ever drive it to one of the rails.
type FloatingOutput struct {
	Component       int
	Net             string
	MissingPullUp   bool
	MissingPullDown bool
}

// DeepPath is a logic output whose nearest conducting path to a rail
// exceeds the series-stack limit: a pass-gate chain or an implausibly
// deep stack.
type DeepPath struct {
	Component int
	Net       string
	Dir       string // "pull-up" or "pull-down"
	Depth     int    // devices on the shortest conducting path to the rail
}

// Stats summarizes the partition.
type Stats struct {
	Components     int // channel-connected components (incl. singletons)
	LargestDevices int // devices in the largest component
	LargestNets    int // nets in the largest component
	RailBridges    int // devices whose channel ties two rails directly
	MaxStackDepth  int // deepest shortest-path-to-rail over all outputs
}

// Analysis is the result of one static pass over a flattened netlist.
type Analysis struct {
	Components []*Component

	// Shorts, Floating and Deep are the analyzer's findings, sorted for
	// stable output (internal/lint maps them onto MT018..MT020).
	Shorts   []ShortPath
	Floating []FloatingOutput
	Deep     []DeepPath

	rails map[string]RailKind
	stats Stats

	// The net numbering: every node of the deck gets one dense index,
	// in name order. The partition and the witness replay run on these
	// indices. Analyze fills them and nothing writes them afterwards,
	// so concurrent replays share them without a lock.
	nets    []string         // index -> net name (sorted)
	netID   map[string]int32 // net name -> index
	netKind []RailKind       // index -> rail kind
	comp    []int32          // index -> component ID (-1 for rails)
	outs    []int32          // every component's outputs, in component order
	devID   map[string]int32 // device name -> index into edges, then bridges

	// Retained for the prover (Prove): the flattened deck, the
	// effective config, and the conduction graph the path checks ran
	// over.
	flat    *netlist.Flat
	cfg     Config
	edges   []condEdge
	bridges []condEdge
	adj     []arcMap // per-component conduction adjacency
}

// Analyze partitions the flat netlist into channel-connected
// components and runs the DC-path checks. A nil or empty deck yields
// an empty analysis.
func Analyze(f *netlist.Flat, cfg Config) *Analysis {
	cfg = cfg.withDefaults()
	a := &Analysis{rails: map[string]RailKind{}, cfg: cfg}
	if f == nil {
		return a
	}
	a.flat = f
	a.rails = classifyRails(f)
	a.numberNets(f)
	a.conductors(f)
	a.partition(f)
	a.enumeratePaths(cfg)
	return a
}

// Rail returns the rail classification of a node (RailNone for
// ordinary nets).
func (a *Analysis) Rail(node string) RailKind { return a.rails[node] }

// ComponentOf returns the component ID containing the net, or -1 for
// rails and unknown nets.
func (a *Analysis) ComponentOf(net string) int {
	if i, ok := a.netID[net]; ok {
		return int(a.comp[i])
	}
	return -1
}

// Stats returns the partition summary.
func (a *Analysis) Stats() Stats { return a.stats }

// sortedKeys returns the keys of a string-keyed set in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
