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

// NetState is the replayed drive state of one net. The states form a
// bit set: StateContend is StateLow|StateHigh, so an island's state is
// the OR of what each rail in it contributes.
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

// value is a net's three-valued logic level under a model: 0, 1, or X
// where the model does not assign the net.
type value int8

const (
	valX value = iota
	val0
	val1
)

// Replay is the switch-level evaluation of the deck under one model,
// held per net index of the analysis.
type Replay struct {
	a        *Analysis
	val      []value    // net -> the model's level
	conducts []bool     // edge (a.edges, then a.bridges) -> conducts under the model
	root     []int32    // net -> its island's root (-1 off every channel)
	state    []NetState // net -> replayed drive state
}

// Replay evaluates the deck at switch level under a full model (every
// signal rail and every gate/output net assigned, as produced by the
// prover's Model field): every device's conduction is decided by its
// gate value, conducting channels are merged, and each merged island
// is classified by the drivers it touches. Drivers are the supply
// rails and the signal rails at their model values.
//
// A net the model does not assign is X. X reads as 0 at a gate, the
// solver's false-first don't-care polarity, and pulls low on a signal
// rail; CheckModel skips outputs that are X. When the model
// lists a net twice, its first entry counts, as with Witness.Get.
// Nets no channel or resistor touches stay floating and connected to
// nothing.
func (a *Analysis) Replay(model Witness) *Replay {
	n := len(a.nets)
	r := &Replay{
		a:        a,
		val:      make([]value, n),
		conducts: make([]bool, len(a.edges)+len(a.bridges)),
		root:     make([]int32, n),
		state:    make([]NetState, n),
	}
	for _, nv := range model {
		if i, ok := a.netID[nv.Net]; ok && r.val[i] == valX {
			r.val[i] = val0
			if nv.Value {
				r.val[i] = val1
			}
		}
	}

	// Merge conducting channels. Only channel endpoints join the
	// union-find; every other net keeps root -1.
	for i := range r.root {
		r.root[i] = -1
	}
	uf := unionFind(r.root)
	k := 0
	for _, es := range [][]condEdge{a.edges, a.bridges} {
		for i := range es {
			e := &es[i]
			uf.add(e.ia)
			uf.add(e.ib)
			r.conducts[k] = r.edgeConducts(e)
			if r.conducts[k] {
				uf.union(e.ia, e.ib)
			}
			k++
		}
	}

	// Point every endpoint at its island's root, and classify each
	// island by the rails it touches.
	for i := range r.root {
		if r.root[i] < 0 {
			continue
		}
		p := uf.find(int32(i))
		r.root[i] = p
		switch a.netKind[i] {
		case RailHigh:
			r.state[p] |= StateHigh
		case RailLow:
			r.state[p] |= StateLow
		case RailSignal:
			if r.val[i] == val1 {
				r.state[p] |= StateHigh
			} else {
				r.state[p] |= StateLow
			}
		}
	}
	for i, p := range r.root {
		if p >= 0 {
			r.state[i] = r.state[p]
		}
	}
	return r
}

// edgeConducts decides one device under the model: resistors and
// tied-on devices always conduct, tied-off never, and a switchable
// MOS, whose gate is a signal rail or an ordinary net, follows the
// gate's model value (X reads 0).
func (r *Replay) edgeConducts(e *condEdge) bool {
	switch e.st {
	case alwaysOn:
		return true
	case alwaysOff:
		return false
	}
	return (r.val[e.ig] == val1) != e.pmos
}

// State returns the replayed drive state of a net.
func (r *Replay) State(n string) NetState {
	if i, ok := r.a.netID[n]; ok {
		return r.state[i]
	}
	return StateFloat
}

// Connected reports whether two nets are joined by conducting
// channels under the model.
func (r *Replay) Connected(x, y string) bool {
	i, ok := r.a.netID[x]
	if !ok || r.root[i] < 0 {
		return false
	}
	j, ok := r.a.netID[y]
	return ok && r.root[i] == r.root[j]
}

// CheckShort verifies a ProvenShort against the replay: every device
// on the path must conduct and the two rails must end up conductively
// joined.
func (r *Replay) CheckShort(sh ProvenShort) error {
	for _, d := range sh.Devices {
		if k, ok := r.a.devID[d]; !ok || !r.conducts[k] {
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
	if st := r.State(pf.Net); st != StateFloat {
		return fmt.Errorf("replay: node %s is %s under witness, not floating", pf.Net, st)
	}
	return nil
}

// CheckModel verifies the model's internal consistency: every output
// net conductively driven (not contended, not floating) must carry
// the value the model assigned it. Contended and floating nets are
// exempt — a contended node's value is an analog fight and a floating
// node retains charge, which is exactly the freedom the CNF encoding
// grants them — and so are outputs the model leaves X.
func (r *Replay) CheckModel() error {
	for _, o := range r.a.outs {
		switch r.state[o] {
		case StateHigh:
			if r.val[o] == val0 {
				return fmt.Errorf("replay: output %s driven high but model says 0", r.a.nets[o])
			}
		case StateLow:
			if r.val[o] == val1 {
				return fmt.Errorf("replay: output %s driven low but model says 1", r.a.nets[o])
			}
		}
	}
	return nil
}
