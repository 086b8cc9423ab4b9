package spice

import (
	"context"
	"fmt"

	"mtcmos/internal/circuit"
	"mtcmos/internal/netlist"
)

// StandbyResult reports the reference-engine sleep-mode analysis of an
// MTCMOS circuit: where the virtual ground floats to when the sleep
// device turns off, and the resulting leakage versus active mode.
type StandbyResult struct {
	// VGndFloat is the steady-state virtual-ground voltage in standby:
	// the self-reverse-bias that quenches the logic's subthreshold
	// leakage (the internal state collapses toward the rails and the
	// high-Vt device limits the remaining current).
	VGndFloat float64
	// Standby is the steady-state supply current with the sleep device
	// off; Active is the same with the device on.
	Standby float64
	Active  float64
	// Reduction is Active / Standby.
	Reduction float64
}

// Standby computes the sleep-mode operating point of an MTCMOS circuit
// with the reference engine's full-Newton DC solver: gmin-stepped
// Newton over the whole network (see Engine.OperatingPoint), which
// moves the floating virtual ground and every node riding on it as one
// collective mode. It is StandbyContext without a budget.
func Standby(c *circuit.Circuit, inputs map[string]bool) (*StandbyResult, error) {
	return StandbyContext(context.TODO(), c, inputs)
}

// StandbyContext is Standby under a context, which bounds the warm-up
// transients and the DC solves: once it fires, the analysis stops with
// the failure simerr.FromContext classifies. A nil ctx means
// context.Background().
func StandbyContext(ctx context.Context, c *circuit.Circuit, inputs map[string]bool) (*StandbyResult, error) {
	if c.SleepWL <= 0 {
		return nil, fmt.Errorf("spice: standby analysis needs a sleep device")
	}
	vals, err := c.Evaluate(inputs)
	if err != nil {
		return nil, err
	}
	seed := make(map[string]float64, len(vals))
	for k, b := range vals {
		if b {
			seed[netlist.CanonNode(k)] = c.Tech.Vdd
		}
	}
	nl, err := c.Netlist(circuit.Stimulus{Old: inputs, New: inputs})
	if err != nil {
		return nil, err
	}
	flat, err := nl.Flatten()
	if err != nil {
		return nil, err
	}
	active, err := Compile(flat, c.Tech)
	if err != nil {
		return nil, err
	}
	// The standby engine is the same circuit with the sleep gate at 0 V.
	sleep, err := active.withSourceDC(circuit.NodeSleep, 0)
	if err != nil {
		return nil, err
	}

	// Two-stage solve: the warm-up transient gives the operating point
	// a consistent starting point from which only the collective
	// floating-rail mode remains to move.
	solve := func(e *Engine, seed map[string]float64) ([]float64, error) {
		v, err := e.settle(ctx, seed)
		if err != nil {
			return nil, err
		}
		v, _, err = e.operatingPoint(ctx, v, 0)
		return v, err
	}

	out := &StandbyResult{}
	v, err := solve(active, seed)
	if err != nil {
		return nil, err
	}
	if i, ok := active.SupplyCurrent(v, circuit.NodeVdd); ok {
		out.Active = i
	}

	// Standby: seed the floating cluster high so Newton starts near
	// the collapsed state.
	seed[circuit.NodeVGnd] = 0.8 * c.Tech.Vdd
	v, err = solve(sleep, seed)
	if err != nil {
		return nil, err
	}
	if x, ok := sleep.NodeVoltage(v, circuit.NodeVGnd); ok {
		out.VGndFloat = x
	}
	if i, ok := sleep.SupplyCurrent(v, circuit.NodeVdd); ok {
		out.Standby = i
	}
	if out.Standby > 0 {
		out.Reduction = out.Active / out.Standby
	}
	return out, nil
}

// settle is Standby's warm-up: a short transient from seed that
// settles every individually anchored node (strong conduction paths).
// It records no traces and returns the final node voltages.
func (e *Engine) settle(ctx context.Context, seed map[string]float64) ([]float64, error) {
	v := make([]float64, len(e.names))
	_, err := e.run(Options{TStop: 2e-6, DTMax: 0.2e-6, InitialV: seed, Record: []string{}, Ctx: ctx}, v)
	return v, err
}
