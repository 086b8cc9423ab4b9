package circuits

import (
	"mtcmos/internal/circuit"
	"mtcmos/internal/mosfet"
)

// PaperTree builds the Fig. 4 clock-distribution tree: inverter stages
// of 1, 3 and 9 at 0.7 um, every leaf loaded with 50 fF.
func PaperTree() *circuit.Circuit {
	tech := mosfet.Tech07()
	return InverterTree(&tech, 3, 3, 50e-15)
}

// PaperChain builds an n-stage inverter chain at 0.7 um with a 20 fF
// output load.
func PaperChain(n int) *circuit.Circuit {
	tech := mosfet.Tech07()
	return InverterChain(&tech, n, 20e-15)
}

// PaperAdder builds the Fig. 12 mirror ripple-carry adder at 0.7 um,
// every output loaded with 20 fF.
func PaperAdder(bits int) *Adder {
	tech := mosfet.Tech07()
	return RippleCarryAdder(&tech, bits, 20e-15)
}

// PaperMultiplier builds the Fig. 6 carry-save multiplier at 0.3 um,
// every product bit loaded with 15 fF.
func PaperMultiplier(n int) *Multiplier {
	tech := mosfet.Tech03()
	return CarrySaveMultiplier(&tech, n, 15e-15)
}

// PaperSelect builds the decoded-select datapath of the exclusion
// refinement (DESIGN.md §11) at 0.7 um, every merge output loaded with
// 20 fF.
func PaperSelect(bits int) *Select {
	tech := mosfet.Tech07()
	return &Select{Circuit: SelectTree(&tech, bits, 20e-15), Bits: bits}
}

// ones is the all-ones operand of a bits-wide datapath.
func ones(bits int) uint64 { return uint64(1)<<uint(bits) - 1 }

func labelled(tr circuit.Transition, label string) circuit.Transition {
	tr.Label = label
	return tr
}

// InputEdge is the tree's or the chain's transition of its one input
// "in" from one level to another, labelled like "0->1".
func InputEdge(from, to bool) circuit.Transition {
	level := map[bool]string{false: "0", true: "1"}
	return circuit.Transition{Old: map[string]bool{"in": from}, New: map[string]bool{"in": to},
		Label: level[from] + "->" + level[to]}
}

// InverterEdges are the tree's and the chain's stressing transitions:
// the rising and the falling input edge.
func InverterEdges() []circuit.Transition {
	return []circuit.Transition{InputEdge(false, true), InputEdge(true, false)}
}

// Pair is the transition from operands (oa, ob) to (na, nb) with the
// carry-in grounded.
func (ad *Adder) Pair(oa, ob, na, nb uint64) circuit.Transition {
	return circuit.Transition{Old: ad.Inputs(oa, ob, false), New: ad.Inputs(na, nb, false)}
}

// CarryRipple is (0, 0) -> (all ones, 1): a carry born in bit 0
// ripples through every stage.
func (ad *Adder) CarryRipple() circuit.Transition {
	return labelled(ad.Pair(0, 0, ones(ad.Bits), 1), "carry ripple")
}

// AllOn is (0, 0) -> (all ones, all ones): every operand bit rises.
func (ad *Adder) AllOn() circuit.Transition {
	return labelled(ad.Pair(0, 0, ones(ad.Bits), ones(ad.Bits)), "all on")
}

// Pair is the transition from operands (ox, oy) to (nx, ny).
func (m *Multiplier) Pair(ox, oy, nx, ny uint64) circuit.Transition {
	return circuit.Transition{Old: m.Inputs(ox, oy), New: m.Inputs(nx, ny)}
}

// VectorA and VectorB are the paper's two multiplier vectors (section
// 4, Fig. 7), at 8 bits
//
//	A (larger currents):  X: 00->FF, Y: 00->81
//	B (smaller currents): X: 7F->FF, Y: 81->81
//
// and at N bits the same bit patterns. A flips every partial-product
// row at once; B ripples.
func (m *Multiplier) VectorA() circuit.Transition {
	return labelled(m.Pair(0, 0, ones(m.N), 1|1<<uint(m.N-1)), "A (paper)")
}

// VectorB is the paper's vector B; see VectorA.
func (m *Multiplier) VectorB() circuit.Transition {
	y := uint64(1 | 1<<uint(m.N-1))
	return labelled(m.Pair(ones(m.N)>>1, y, ones(m.N), y), "B (paper)")
}

// Pairs are the select tree's stressing transitions on (sel, a, b):
// "switch branch" (0, 0, 0) -> (1, all ones, all ones), and "A falls"
// (0, all ones, all ones) -> (0, 0, all ones) and "B falls" (1, all
// ones, all ones) -> (1, all ones, 0), which drop every bit of the
// selected branch.
func (s *Select) Pairs() []circuit.Transition {
	all := ones(s.Bits)
	return []circuit.Transition{
		{Old: s.Inputs(false, 0, 0), New: s.Inputs(true, all, all), Label: "switch branch"},
		{Old: s.Inputs(false, all, all), New: s.Inputs(false, 0, all), Label: "A falls"},
		{Old: s.Inputs(true, all, all), New: s.Inputs(true, all, 0), Label: "B falls"},
	}
}
