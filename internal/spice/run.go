package spice

import (
	"fmt"

	"mtcmos/internal/circuit"
	"mtcmos/internal/netlist"
	"mtcmos/internal/wave"
)

// RunOptions extends Options with circuit-level conveniences.
type RunOptions struct {
	Options
	// RecordNets limits recording to these circuit nets plus the
	// virtual ground; nil records the circuit's marked outputs, the
	// inputs, and the virtual ground.
	RecordNets []string
}

// RunResult pairs engine traces with circuit-level measurements.
type RunResult struct {
	*Result
	Stim circuit.Stimulus
	Vdd  float64
}

// OutTrace returns the trace of a circuit net.
func (r *RunResult) OutTrace(net string) *wave.Trace {
	return r.Trace(netlist.CanonNode(net))
}

// VGndTrace returns the virtual-ground trace (nil for plain CMOS).
func (r *RunResult) VGndTrace() *wave.Trace {
	return r.Trace(circuit.NodeVGnd)
}

// Delay measures the named output's settling delay: from the stimulus
// edge's midpoint to the output's last Vdd/2 crossing after it (either
// direction), the definition core.Result.Delay uses. A glitching
// output counts from its last crossing, not its first.
func (r *RunResult) Delay(net string) (float64, error) {
	tr := r.OutTrace(net)
	if tr == nil {
		return 0, fmt.Errorf("spice: net %q was not recorded", net)
	}
	from := r.Stim.TEdge + r.Stim.TRise/2
	tc, ok := tr.LastCrossing(r.Vdd/2, from)
	if !ok {
		return 0, fmt.Errorf("spice: output %q never crosses Vdd/2 after the edge", net)
	}
	return tc - from, nil
}

// MaxDelay returns the largest settling delay over the given nets and
// the net that set it; a net counts once it crosses Vdd/2 at all. It
// fails when none of them toggled.
func (r *RunResult) MaxDelay(nets []string) (float64, string, error) {
	worst, worstNet := 0.0, ""
	for _, n := range nets {
		d, err := r.Delay(n)
		if err != nil {
			continue // output did not toggle
		}
		if worstNet == "" || d > worst {
			worst, worstNet = d, n
		}
	}
	if worstNet == "" {
		return 0, "", fmt.Errorf("spice: no recorded output toggled")
	}
	return worst, worstNet, nil
}

// Run expands a gate-level circuit for the given stimulus, seeds node
// voltages from a logic evaluation of the old vector (so the settle
// interval before the edge is short), and runs the transient engine.
func Run(c *circuit.Circuit, stim circuit.Stimulus, opts RunOptions) (*RunResult, error) {
	nl, err := c.Netlist(stim)
	if err != nil {
		return nil, err
	}
	flat, err := nl.Flatten()
	if err != nil {
		return nil, err
	}

	// Logic-based seed: every gate-level net starts at its steady state
	// under the old vector. Template-internal nodes settle on their own.
	if opts.InitialV == nil {
		vals, err := c.Evaluate(stim.Old)
		if err != nil {
			return nil, err
		}
		seed := make(map[string]float64, len(vals))
		for name, b := range vals {
			if b {
				seed[netlist.CanonNode(name)] = c.Tech.Vdd
			} else {
				seed[netlist.CanonNode(name)] = 0
			}
		}
		opts.InitialV = seed
	}

	if opts.Record == nil {
		var rec []string
		if opts.RecordNets != nil {
			rec = append(rec, opts.RecordNets...)
		} else {
			rec = c.OutputNames()
			for _, n := range c.Inputs {
				rec = append(rec, n.Name)
			}
		}
		canon := make([]string, 0, len(rec)+1)
		for _, n := range rec {
			canon = append(canon, netlist.CanonNode(n))
		}
		if c.SleepWL > 0 {
			canon = append(canon, circuit.NodeVGnd)
		}
		opts.Record = canon
	}

	// Runtime failures carry the partial waveform up to the failure
	// time (matching internal/core); pass it through alongside the
	// error so callers can salvage what was simulated.
	res, err := Simulate(flat, c.Tech, opts.Options)
	if res == nil {
		return nil, err
	}
	return &RunResult{Result: res, Stim: stim, Vdd: c.Tech.Vdd}, err
}
