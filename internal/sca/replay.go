package sca

import (
	"fmt"
	"strings"
)

// Witness replay: an independent switch-level check that a model the
// SAT prover produced really is a circuit state with the claimed
// property. Replay shares no code with the CNF encoding — it evaluates
// raw channel connectivity under the model's gate values — so a bug in
// the encoder cannot silently vouch for itself. mtlint -prove replays
// every witness it prints; the end-to-end tests additionally replay
// them through the event-driven engine (internal/core) and the
// operating-point solver (internal/spice).

// NetState is the replayed drive state of one net.
type NetState int8

const (
	// StateFloat marks a net no conducting path ties to any driver.
	StateFloat NetState = iota
	// StateLow marks a net conductively tied to low drivers only.
	StateLow
	// StateHigh marks a net conductively tied to high drivers only.
	StateHigh
	// StateContend marks a net tied to both high and low drivers: a
	// DC fight, the signature of a rail short.
	StateContend
)

// String names the state.
func (s NetState) String() string {
	switch s {
	case StateLow:
		return "low"
	case StateHigh:
		return "high"
	case StateContend:
		return "contend"
	default:
		return "float"
	}
}

// Replay is the switch-level evaluation of the deck under one model.
type Replay struct {
	a     *Analysis
	model Witness

	conducts map[string]bool   // device name -> conducts under the model
	group    map[string]string // union-find parent over nets
	state    map[string]NetState
}

// Replay evaluates the deck at switch level under a full model (every
// signal rail and every gate/output net assigned, as produced by the
// prover's Model field): every device's conduction is decided by its
// gate value, conducting channels are merged, and each merged island
// is classified by the drivers it touches. Drivers are the supply
// rails and the signal rails at their model values.
func (a *Analysis) Replay(model Witness) *Replay {
	r := &Replay{
		a:        a,
		model:    model,
		conducts: map[string]bool{},
		group:    map[string]string{},
		state:    map[string]NetState{},
	}

	all := append(append([]condEdge{}, a.edges...), a.bridges...)
	for _, e := range all {
		r.conducts[e.name] = r.edgeConducts(e)
	}

	// Merge conducting channels.
	uf := newUnionFind()
	for _, e := range all {
		uf.find(e.a)
		uf.find(e.b)
		if r.conducts[e.name] {
			uf.union(e.a, e.b)
		}
	}

	// Classify each island by the drivers it touches.
	type drive struct{ high, low bool }
	drivers := map[string]*drive{}
	for n := range uf.parent {
		root := uf.find(n)
		d := drivers[root]
		if d == nil {
			d = &drive{}
			drivers[root] = d
		}
		switch a.rails[n] {
		case RailHigh:
			d.high = true
		case RailLow:
			d.low = true
		case RailSignal:
			if v, ok := model.Get(n); ok && v {
				d.high = true
			} else {
				d.low = true
			}
		}
	}
	for n := range uf.parent {
		r.group[n] = uf.find(n)
		switch d := drivers[r.group[n]]; {
		case d.high && d.low:
			r.state[n] = StateContend
		case d.high:
			r.state[n] = StateHigh
		case d.low:
			r.state[n] = StateLow
		default:
			r.state[n] = StateFloat
		}
	}
	return r
}

// edgeConducts decides one device under the model: resistors and
// tied-on devices always conduct, tied-off never, and a switchable
// MOS follows its gate value (high rail gates read 1, low rail gates
// 0, signal rails and ordinary nets read from the model; an
// unassigned gate reads 0, matching the solver's false-first
// don't-care polarity).
func (r *Replay) edgeConducts(e condEdge) bool {
	switch e.st {
	case alwaysOn:
		return true
	case alwaysOff:
		return false
	}
	if !e.mos {
		return true
	}
	g := r.netValue(e.gate)
	if e.pmos {
		return !g
	}
	return g
}

// netValue reads a net's boolean value for gate evaluation.
func (r *Replay) netValue(n string) bool {
	switch r.a.rails[n] {
	case RailHigh:
		return true
	case RailLow:
		return false
	}
	v, _ := r.model.Get(n)
	return v
}

// State returns the replayed drive state of a net.
func (r *Replay) State(n string) NetState { return r.state[n] }

// Connected reports whether two nets are joined by conducting
// channels under the model.
func (r *Replay) Connected(x, y string) bool {
	gx, ok := r.group[x]
	if !ok {
		return false
	}
	gy, ok := r.group[y]
	return ok && gx == gy
}

// CheckShort verifies a ProvenShort against the replay: every device
// on the path must conduct and the two rails must end up conductively
// joined.
func (r *Replay) CheckShort(sh ProvenShort) error {
	for _, d := range sh.Devices {
		if !r.conducts[d] {
			return fmt.Errorf("replay: device %s on proven short %s->%s does not conduct under witness", d, sh.From, sh.To)
		}
	}
	if !r.Connected(sh.From, sh.To) {
		return fmt.Errorf("replay: rails %s and %s not conductively joined under witness (path %s)",
			sh.From, sh.To, strings.Join(sh.Devices, "+"))
	}
	return nil
}

// CheckFloating verifies a ProvenFloating against the replay: the
// node must end up tied to no driver at all.
func (r *Replay) CheckFloating(pf ProvenFloating) error {
	if st := r.state[pf.Net]; st != StateFloat {
		return fmt.Errorf("replay: node %s is %s under witness, not floating", pf.Net, st)
	}
	return nil
}

// CheckModel verifies the model's internal consistency: every output
// net conductively driven (not contended, not floating) must carry
// the value the model assigned it. Contended and floating nets are
// exempt — a contended node's value is an analog fight and a floating
// node retains charge, which is exactly the freedom the CNF encoding
// grants them.
func (r *Replay) CheckModel() error {
	for _, c := range r.a.Components {
		for _, o := range c.Outputs {
			mv, ok := r.model.Get(o)
			if !ok {
				continue
			}
			switch r.state[o] {
			case StateHigh:
				if !mv {
					return fmt.Errorf("replay: output %s driven high but model says 0", o)
				}
			case StateLow:
				if mv {
					return fmt.Errorf("replay: output %s driven low but model says 1", o)
				}
			}
		}
	}
	return nil
}
