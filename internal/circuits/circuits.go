// Package circuits generates the benchmark circuits used throughout
// the paper's evaluation: the 1-3-9 inverter tree of Fig. 4, the N-bit
// mirror ripple-carry adder of Fig. 12, and the NxN carry-save array
// multiplier of Fig. 6, plus a plain inverter chain for calibration
// and the decoded-select datapath of the exclusion refinement. All
// generators return gate-level circuits; set SleepWL on the result to
// wrap it in MTCMOS.
//
// The Paper* constructors and the named vector pairs (InverterEdges,
// Adder.CarryRipple, Multiplier.VectorA, ...) are the one catalogue of
// the paper's benchmarks that the tools and experiments share. Each
// constructor builds a fresh instance at its paper node and load, so a
// caller may set SleepWL on its own copy; circuit.Transition.Stimulus
// applies a pair with the paper's input edge.
package circuits

import (
	"fmt"

	"mtcmos/internal/circuit"
	"mtcmos/internal/mosfet"
)

// The smallest widths the generators build; below them they panic, so
// a caller that takes a width from its user checks it against these.
const (
	MinChainLength    = 1 // InverterChain stages
	MinAdderBits      = 1 // RippleCarryAdder operand bits
	MinMultiplierBits = 2 // CarrySaveMultiplier operand bits
	MinSelectBits     = 1 // SelectTree datapath bits
)

// The widths the tools build when their user sets none: the paper's
// 3-bit adder and 8x8 multiplier, a 4-stage calibration chain, and the
// 8-bit select tree of the refinement experiment.
const (
	DefaultChainLength    = 4
	DefaultAdderBits      = 3
	DefaultMultiplierBits = 8
	DefaultSelectBits     = 8
)

// CheckWidth refuses a width v below a generator minimum, naming it;
// 0 stands for the default width (the Default* constants) and passes.
func CheckWidth(name string, v, least int) error {
	if v != 0 && v < least {
		return fmt.Errorf("%s %d: the width must be at least %d (0 = default)", name, v, least)
	}
	return nil
}

// InverterTree builds the paper's clock-distribution inverter tree
// (Fig. 4): one root inverter, then fanning out by branch at each
// further level, every leaf output loaded with load farads. The
// paper's tree is InverterTree(tech, 3, 3, 50fF): stages of 1, 3 and 9
// inverters. The root input net is "in"; leaf outputs are
// "s<levels>_<k>" and are marked as outputs.
func InverterTree(tech *mosfet.Tech, levels, branch int, load float64) *circuit.Circuit {
	if levels < 1 || branch < 1 {
		panic("circuits: InverterTree needs levels >= 1 and branch >= 1")
	}
	c := circuit.New(fmt.Sprintf("invtree-%dx%d", levels, branch), tech)
	c.Input("in")
	prev := []string{"in"}
	for lvl := 1; lvl <= levels; lvl++ {
		var next []string
		idx := 0
		for _, src := range prev {
			n := branch
			if lvl == 1 {
				n = 1 // single root inverter
			}
			for k := 0; k < n; k++ {
				out := fmt.Sprintf("s%d_%d", lvl, idx)
				c.MustGate(circuit.Inv, fmt.Sprintf("i%d_%d", lvl, idx), out, 1, src)
				next = append(next, out)
				idx++
			}
		}
		prev = next
	}
	for _, leaf := range prev {
		c.MarkOutput(leaf)
		c.SetLoad(leaf, load)
	}
	if err := c.Check(); err != nil {
		panic("circuits: InverterTree: " + err.Error())
	}
	return c
}

// InverterChain builds a linear chain of n inverters from input "in" to
// output "out" with the given output load; intermediate nets are
// "n1".."n<n-1>".
func InverterChain(tech *mosfet.Tech, n int, load float64) *circuit.Circuit {
	if n < MinChainLength {
		panic(fmt.Sprintf("circuits: InverterChain needs n >= %d", MinChainLength))
	}
	c := circuit.New(fmt.Sprintf("invchain-%d", n), tech)
	c.Input("in")
	prev := "in"
	for i := 1; i <= n; i++ {
		out := fmt.Sprintf("n%d", i)
		if i == n {
			out = "out"
		}
		c.MustGate(circuit.Inv, fmt.Sprintf("i%d", i), out, 1, prev)
		prev = out
	}
	c.MarkOutput("out")
	c.SetLoad("out", load)
	if err := c.Check(); err != nil {
		panic("circuits: InverterChain: " + err.Error())
	}
	return c
}

// fullAdder instantiates one 28-transistor mirror full adder (paper
// Fig. 12 and ref [11]): complemented carry and sum complex gates plus
// two output inverters driving the named sum and carry-out nets. size
// scales every device width (drive strength).
func fullAdder(c *circuit.Circuit, name, a, b, cin, sum, cout string, size float64) {
	nco := name + "_nco"
	nsum := name + "_nsum"
	c.MustGate(circuit.MirrorCarry, name+"_gc", nco, size, a, b, cin)
	c.MustGate(circuit.MirrorSum, name+"_gs", nsum, size, a, b, cin, nco)
	c.MustGate(circuit.Inv, name+"_ic", cout, size, nco)
	c.MustGate(circuit.Inv, name+"_is", sum, size, nsum)
}

// halfAdder instantiates a half adder (XOR + AND) on the named nets.
func halfAdder(c *circuit.Circuit, name, a, b, sum, cout string, size float64) {
	c.MustGate(circuit.Xor2, name+"_gx", sum, size, a, b)
	c.MustGate(circuit.And2, name+"_ga", cout, size, a, b)
}

// Adder wraps a generated ripple-carry adder with operand helpers.
type Adder struct {
	*circuit.Circuit
	Bits int
}

// RippleCarryAdder builds the paper's N-bit mirror ripple-carry adder
// (Fig. 12; the paper's instance is bits=3, "3x28 transistors").
// Inputs are "a0".."a<n-1>", "b0".."b<n-1>" and "cin"; outputs
// "s0".."s<n-1>" and "cout", each loaded with load farads.
func RippleCarryAdder(tech *mosfet.Tech, bits int, load float64) *Adder {
	if bits < MinAdderBits {
		panic(fmt.Sprintf("circuits: RippleCarryAdder needs bits >= %d", MinAdderBits))
	}
	c := circuit.New(fmt.Sprintf("rca-%db", bits), tech)
	for i := 0; i < bits; i++ {
		c.Input(fmt.Sprintf("a%d", i))
		c.Input(fmt.Sprintf("b%d", i))
	}
	c.Input("cin")
	carry := "cin"
	for i := 0; i < bits; i++ {
		sn := fmt.Sprintf("s%d", i)
		cn := fmt.Sprintf("c%d", i)
		if i == bits-1 {
			cn = "cout"
		}
		fullAdder(c, fmt.Sprintf("fa%d", i),
			fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i), carry, sn, cn, 1)
		c.MarkOutput(sn)
		c.SetLoad(sn, load)
		carry = cn
	}
	c.MarkOutput("cout")
	c.SetLoad("cout", load)
	if err := c.Check(); err != nil {
		panic("circuits: RippleCarryAdder: " + err.Error())
	}
	return &Adder{Circuit: c, Bits: bits}
}

// Inputs encodes operands as an input-vector map: bit i of a and b
// drive a<i> and b<i>.
func (ad *Adder) Inputs(a, b uint64, cin bool) map[string]bool {
	m := make(map[string]bool, 2*ad.Bits+1)
	for i := 0; i < ad.Bits; i++ {
		m[fmt.Sprintf("a%d", i)] = a>>uint(i)&1 == 1
		m[fmt.Sprintf("b%d", i)] = b>>uint(i)&1 == 1
	}
	m["cin"] = cin
	return m
}

// Result decodes the sum and carry from evaluated net values.
func (ad *Adder) Result(vals map[string]bool) (sum uint64, cout bool) {
	for i := 0; i < ad.Bits; i++ {
		if vals[fmt.Sprintf("s%d", i)] {
			sum |= 1 << uint(i)
		}
	}
	return sum, vals["cout"]
}

// csmDrive is the drive strength of every multiplier array cell. The
// paper's array cells are clearly stronger than minimum size (its
// Table 1 degradation magnitudes imply roughly twice the discharge
// current of unit gates at the same sleep resistance), so the
// generator uses 2x devices throughout; see EXPERIMENTS.md.
const csmDrive = 2

// Multiplier wraps a generated carry-save array multiplier. ProductNets
// holds the net names of product bits p0..p(2N-1) in weight order.
type Multiplier struct {
	*circuit.Circuit
	N           int
	ProductNets []string
}

// CarrySaveMultiplier builds the paper's NxN unsigned carry-save array
// multiplier (Fig. 6, drawn there as the 4x4 version; the experiments
// use 8x8). Partial products come from AND gates; the array is rows of
// mirror full adders with carries saved to the next row; a final
// ripple (vector-merge) adder produces the top product bits. Inputs
// are "x0".."x<n-1>" and "y0".."y<n-1>"; product-bit nets (see
// ProductNets) are marked as outputs and loaded with load farads.
func CarrySaveMultiplier(tech *mosfet.Tech, n int, load float64) *Multiplier {
	if n < MinMultiplierBits {
		panic(fmt.Sprintf("circuits: CarrySaveMultiplier needs n >= %d", MinMultiplierBits))
	}
	c := circuit.New(fmt.Sprintf("csm-%dx%d", n, n), tech)
	for i := 0; i < n; i++ {
		c.Input(fmt.Sprintf("x%d", i))
		c.Input(fmt.Sprintf("y%d", i))
	}
	// pp[i][j] = x_j AND y_i, weight 2^(i+j).
	pp := make([][]string, n)
	for i := 0; i < n; i++ {
		pp[i] = make([]string, n)
		for j := 0; j < n; j++ {
			out := fmt.Sprintf("pp%d_%d", i, j)
			c.MustGate(circuit.And2, "g"+out, out, csmDrive,
				fmt.Sprintf("x%d", j), fmt.Sprintf("y%d", i))
			pp[i][j] = out
		}
	}

	// addBits sums up to three operand nets ("" means constant zero)
	// into the named outputs; degenerate cases collapse to aliases.
	// It returns the actual sum and carry net names ("" for zero).
	addBits := func(name, sum, cout string, ins ...string) (string, string) {
		var live []string
		for _, in := range ins {
			if in != "" {
				live = append(live, in)
			}
		}
		switch len(live) {
		case 0:
			return "", ""
		case 1:
			return live[0], ""
		case 2:
			halfAdder(c, name, live[0], live[1], sum, cout, csmDrive)
			return sum, cout
		default:
			fullAdder(c, name, live[0], live[1], live[2], sum, cout, csmDrive)
			return sum, cout
		}
	}

	// Carry-save rows: entering row i, s[j] is the running sum bit of
	// weight i+j and cr[j] the carry of the same weight.
	s := make([]string, n+1)
	cr := make([]string, n+1)
	for j := 0; j < n; j++ {
		s[j] = pp[0][j]
	}
	product := make([]string, 2*n)
	product[0] = s[0]
	for i := 1; i < n; i++ {
		ns := make([]string, n+1)
		ncr := make([]string, n+1)
		for j := 0; j < n; j++ {
			name := fmt.Sprintf("fa%d_%d", i, j)
			ns[j], ncr[j] = addBits(name, name+"_sum", name+"_cry",
				pp[i][j], s[j+1], cr[j])
		}
		s, cr = ns, ncr
		product[i] = s[0]
	}
	// Vector-merge ripple adder over the remaining sums and carries.
	// The final carry out is always zero for an NxN multiply (the
	// product fits in 2N bits), so it is dropped.
	carry := ""
	for t := 0; t < n; t++ {
		name := fmt.Sprintf("vm%d", t)
		product[n+t], carry = addBits(name, name+"_sum", name+"_cry",
			s[t+1], cr[t], carry)
	}

	m := &Multiplier{Circuit: c, N: n, ProductNets: product}
	for k, net := range product {
		if net == "" {
			panic(fmt.Sprintf("circuits: product bit %d is constant", k))
		}
		c.MarkOutput(net)
		c.SetLoad(net, load)
	}
	if err := c.Check(); err != nil {
		panic("circuits: CarrySaveMultiplier: " + err.Error())
	}
	return m
}

// Inputs encodes operands as an input-vector map.
func (m *Multiplier) Inputs(x, y uint64) map[string]bool {
	in := make(map[string]bool, 2*m.N)
	for i := 0; i < m.N; i++ {
		in[fmt.Sprintf("x%d", i)] = x>>uint(i)&1 == 1
		in[fmt.Sprintf("y%d", i)] = y>>uint(i)&1 == 1
	}
	return in
}

// Result decodes the product from evaluated net values.
func (m *Multiplier) Result(vals map[string]bool) uint64 {
	var p uint64
	for k, net := range m.ProductNets {
		if vals[net] {
			p |= 1 << uint(k)
		}
	}
	return p
}

// SelectTree builds an N-bit two-way decoded datapath: a shared select
// inverter "ns" decodes input "sel" into complementary branch enables,
// branch A gates "ga<i>" = a<i> AND NOT sel, branch B gates
// "gb<i>" = b<i> AND sel, and per-bit merges "m<i>" = ga<i> OR gb<i>
// (the classic AND-OR 2:1 mux). At most one branch is enabled in any
// cycle, so a ga gate and a gb gate can never discharge across the
// same input edge — the canonical mutually-exclusive structure the
// SAT-backed exclusion refinement (internal/sca, DESIGN.md §11) can
// prove, where the purely topological level bound must charge both
// branches to the same arrival window.
func SelectTree(tech *mosfet.Tech, bits int, load float64) *circuit.Circuit {
	if bits < MinSelectBits {
		panic(fmt.Sprintf("circuits: SelectTree needs bits >= %d", MinSelectBits))
	}
	c := circuit.New(fmt.Sprintf("seltree-%d", bits), tech)
	c.Input("sel")
	c.MustGate(circuit.Inv, "gns", "ns", 1, "sel")
	for i := 0; i < bits; i++ {
		a := fmt.Sprintf("a%d", i)
		b := fmt.Sprintf("b%d", i)
		c.Input(a)
		c.Input(b)
		ga := fmt.Sprintf("ga%d", i)
		gb := fmt.Sprintf("gb%d", i)
		m := fmt.Sprintf("m%d", i)
		c.MustGate(circuit.And2, "g"+ga, ga, 1, a, "ns")
		c.MustGate(circuit.And2, "g"+gb, gb, 1, b, "sel")
		c.MustGate(circuit.Or2, "g"+m, m, 1, ga, gb)
		c.MarkOutput(m)
		c.SetLoad(m, load)
	}
	if err := c.Check(); err != nil {
		panic("circuits: SelectTree: " + err.Error())
	}
	return c
}

// Select wraps a generated select tree with an operand helper.
type Select struct {
	*circuit.Circuit
	Bits int
}

// Inputs encodes a select value and two operands as an input-vector
// map: bit i of a and b drive a<i> and b<i>.
func (s *Select) Inputs(sel bool, a, b uint64) map[string]bool {
	in := make(map[string]bool, 2*s.Bits+1)
	in["sel"] = sel
	for i := 0; i < s.Bits; i++ {
		in[fmt.Sprintf("a%d", i)] = a>>uint(i)&1 == 1
		in[fmt.Sprintf("b%d", i)] = b>>uint(i)&1 == 1
	}
	return in
}
