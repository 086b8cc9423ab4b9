// Package circuit provides the gate-level intermediate representation
// shared by both simulation engines: a small static-CMOS gate library
// with transistor templates, a circuit graph with logic evaluation, the
// equivalent-inverter extraction used by the switch-level simulator
// (paper section 5.2), and expansion to flat transistor netlists for
// the SPICE-class engine.
package circuit

import "fmt"

// Kind identifies a gate in the library.
type Kind int

// Library gates. MirrorCarry and MirrorSum are the two complex gates of
// the Weste-Eshraghian mirror full adder (paper ref [11], used by the
// Fig. 6 multiplier and Fig. 12 ripple adder): MirrorCarry(a,b,c) =
// NOT(majority), MirrorSum(a,b,c,ncout) = NOT(sum) built from the
// complemented carry.
const (
	Inv Kind = iota
	Buf
	Nand2
	Nand3
	Nor2
	Nor3
	And2
	Or2
	Xor2
	Xnor2
	Aoi21
	Oai21
	Nand4
	Nor4
	Aoi22
	Oai22
	Mux2
	MirrorCarry
	MirrorSum
	numKinds
)

// Polarity of a template device.
type pol int

const (
	nmos pol = iota
	pmos
)

// tmplDev is one transistor of a gate template. Node labels: "out",
// "in0".."in3", "vdd", "gnd" (the local pulldown rail, which becomes
// the virtual ground in MTCMOS mode), and internal nodes "x1", "x2"...
type tmplDev struct {
	pol     pol
	g, d, s string
	wl      float64 // W/L ratio at Size=1
}

// MaxArity is the most inputs any library gate takes.
const MaxArity = 4

// Desc describes a library gate.
type Desc struct {
	Name  string
	Arity int
	// Eval computes the Boolean output from the inputs.
	Eval func(in []bool) bool
	// NEffWL/PEffWL are the equivalent-inverter pulldown/pullup W/L at
	// Size=1 (single worst-case conducting path, series stacks already
	// divided out). The library is sized for uniform unit drive.
	NEffWL, PEffWL float64
	devs           []tmplDev
	// Derived at init:
	cinWL   []float64 // per input, total connected gate W/L
	drainWL float64   // total device W/L with a terminal on "out"
	nDevs   int
}

var descs [numKinds]Desc

// unit drive sizes
const (
	wn1 = 2.0 // unit inverter NMOS W/L
	wp1 = 4.0 // unit inverter PMOS W/L
)

func init() {
	descs[Inv] = Desc{
		Name: "inv", Arity: 1,
		Eval: func(in []bool) bool { return !in[0] },
		devs: []tmplDev{
			{nmos, "in0", "out", "gnd", wn1},
			{pmos, "in0", "out", "vdd", wp1},
		},
	}
	descs[Buf] = Desc{
		Name: "buf", Arity: 1,
		Eval: func(in []bool) bool { return in[0] },
		devs: []tmplDev{
			{nmos, "in0", "x1", "gnd", wn1},
			{pmos, "in0", "x1", "vdd", wp1},
			{nmos, "x1", "out", "gnd", wn1},
			{pmos, "x1", "out", "vdd", wp1},
		},
	}
	descs[Nand2] = Desc{
		Name: "nand2", Arity: 2,
		Eval: func(in []bool) bool { return !(in[0] && in[1]) },
		devs: []tmplDev{
			{nmos, "in0", "out", "x1", 2 * wn1},
			{nmos, "in1", "x1", "gnd", 2 * wn1},
			{pmos, "in0", "out", "vdd", wp1},
			{pmos, "in1", "out", "vdd", wp1},
		},
	}
	descs[Nand3] = Desc{
		Name: "nand3", Arity: 3,
		Eval: func(in []bool) bool { return !(in[0] && in[1] && in[2]) },
		devs: []tmplDev{
			{nmos, "in0", "out", "x1", 3 * wn1},
			{nmos, "in1", "x1", "x2", 3 * wn1},
			{nmos, "in2", "x2", "gnd", 3 * wn1},
			{pmos, "in0", "out", "vdd", wp1},
			{pmos, "in1", "out", "vdd", wp1},
			{pmos, "in2", "out", "vdd", wp1},
		},
	}
	descs[Nor2] = Desc{
		Name: "nor2", Arity: 2,
		Eval: func(in []bool) bool { return !(in[0] || in[1]) },
		devs: []tmplDev{
			{nmos, "in0", "out", "gnd", wn1},
			{nmos, "in1", "out", "gnd", wn1},
			{pmos, "in0", "x1", "vdd", 2 * wp1},
			{pmos, "in1", "out", "x1", 2 * wp1},
		},
	}
	descs[Nor3] = Desc{
		Name: "nor3", Arity: 3,
		Eval: func(in []bool) bool { return !(in[0] || in[1] || in[2]) },
		devs: []tmplDev{
			{nmos, "in0", "out", "gnd", wn1},
			{nmos, "in1", "out", "gnd", wn1},
			{nmos, "in2", "out", "gnd", wn1},
			{pmos, "in0", "x1", "vdd", 3 * wp1},
			{pmos, "in1", "x2", "x1", 3 * wp1},
			{pmos, "in2", "out", "x2", 3 * wp1},
		},
	}
	descs[And2] = Desc{
		Name: "and2", Arity: 2,
		Eval: func(in []bool) bool { return in[0] && in[1] },
		devs: append(relabel(descs[Nand2].devs, "out", "x9"), // core NAND to x9
			tmplDev{nmos, "x9", "out", "gnd", wn1},
			tmplDev{pmos, "x9", "out", "vdd", wp1}),
	}
	descs[Or2] = Desc{
		Name: "or2", Arity: 2,
		Eval: func(in []bool) bool { return in[0] || in[1] },
		devs: append(relabel(descs[Nor2].devs, "out", "x9"),
			tmplDev{nmos, "x9", "out", "gnd", wn1},
			tmplDev{pmos, "x9", "out", "vdd", wp1}),
	}
	// Static CMOS XOR with internal complement inverters (12T).
	xorCore := func(out string) []tmplDev {
		return []tmplDev{
			// complement inverters
			{nmos, "in0", "xa", "gnd", wn1},
			{pmos, "in0", "xa", "vdd", wp1},
			{nmos, "in1", "xb", "gnd", wn1},
			{pmos, "in1", "xb", "vdd", wp1},
			// PDN: (a AND b) OR (na AND nb) pulls low (XOR output low)
			{nmos, "in0", out, "x1", 2 * wn1},
			{nmos, "in1", "x1", "gnd", 2 * wn1},
			{nmos, "xa", out, "x2", 2 * wn1},
			{nmos, "xb", "x2", "gnd", 2 * wn1},
			// PUN: conducts when a xor b
			{pmos, "xa", out, "x3", 2 * wp1},
			{pmos, "in1", "x3", "vdd", 2 * wp1},
			{pmos, "in0", out, "x4", 2 * wp1},
			{pmos, "xb", "x4", "vdd", 2 * wp1},
		}
	}
	descs[Xor2] = Desc{
		Name: "xor2", Arity: 2,
		Eval: func(in []bool) bool { return in[0] != in[1] },
		devs: xorCore("out"),
	}
	descs[Xnor2] = Desc{
		Name: "xnor2", Arity: 2,
		Eval: func(in []bool) bool { return in[0] == in[1] },
		devs: append(relabel(xorCore("x9"), "", ""),
			tmplDev{nmos, "x9", "out", "gnd", wn1},
			tmplDev{pmos, "x9", "out", "vdd", wp1}),
	}
	descs[Aoi21] = Desc{
		Name: "aoi21", Arity: 3, // out = NOT(in0*in1 + in2)
		Eval: func(in []bool) bool { return !((in[0] && in[1]) || in[2]) },
		devs: []tmplDev{
			{nmos, "in0", "out", "x1", 2 * wn1},
			{nmos, "in1", "x1", "gnd", 2 * wn1},
			{nmos, "in2", "out", "gnd", wn1},
			{pmos, "in0", "x2", "vdd", 2 * wp1},
			{pmos, "in1", "x2", "vdd", 2 * wp1},
			{pmos, "in2", "out", "x2", 2 * wp1},
		},
	}
	descs[Oai21] = Desc{
		Name: "oai21", Arity: 3, // out = NOT((in0+in1) * in2)
		Eval: func(in []bool) bool { return !((in[0] || in[1]) && in[2]) },
		devs: []tmplDev{
			{nmos, "in0", "x1", "gnd", 2 * wn1},
			{nmos, "in1", "x1", "gnd", 2 * wn1},
			{nmos, "in2", "out", "x1", 2 * wn1},
			{pmos, "in0", "out", "x2", 2 * wp1},
			{pmos, "in1", "x2", "vdd", 2 * wp1},
			{pmos, "in2", "out", "vdd", wp1},
		},
	}
	descs[Nand4] = Desc{
		Name: "nand4", Arity: 4,
		Eval: func(in []bool) bool { return !(in[0] && in[1] && in[2] && in[3]) },
		devs: []tmplDev{
			{nmos, "in0", "out", "x1", 4 * wn1},
			{nmos, "in1", "x1", "x2", 4 * wn1},
			{nmos, "in2", "x2", "x3", 4 * wn1},
			{nmos, "in3", "x3", "gnd", 4 * wn1},
			{pmos, "in0", "out", "vdd", wp1},
			{pmos, "in1", "out", "vdd", wp1},
			{pmos, "in2", "out", "vdd", wp1},
			{pmos, "in3", "out", "vdd", wp1},
		},
	}
	descs[Nor4] = Desc{
		Name: "nor4", Arity: 4,
		Eval: func(in []bool) bool { return !(in[0] || in[1] || in[2] || in[3]) },
		devs: []tmplDev{
			{nmos, "in0", "out", "gnd", wn1},
			{nmos, "in1", "out", "gnd", wn1},
			{nmos, "in2", "out", "gnd", wn1},
			{nmos, "in3", "out", "gnd", wn1},
			{pmos, "in0", "x1", "vdd", 4 * wp1},
			{pmos, "in1", "x2", "x1", 4 * wp1},
			{pmos, "in2", "x3", "x2", 4 * wp1},
			{pmos, "in3", "out", "x3", 4 * wp1},
		},
	}
	descs[Aoi22] = Desc{
		Name: "aoi22", Arity: 4, // out = NOT(in0*in1 + in2*in3)
		Eval: func(in []bool) bool { return !((in[0] && in[1]) || (in[2] && in[3])) },
		devs: []tmplDev{
			{nmos, "in0", "out", "x1", 2 * wn1},
			{nmos, "in1", "x1", "gnd", 2 * wn1},
			{nmos, "in2", "out", "x2", 2 * wn1},
			{nmos, "in3", "x2", "gnd", 2 * wn1},
			{pmos, "in0", "y1", "vdd", 2 * wp1},
			{pmos, "in1", "y1", "vdd", 2 * wp1},
			{pmos, "in2", "out", "y1", 2 * wp1},
			{pmos, "in3", "out", "y1", 2 * wp1},
		},
	}
	descs[Oai22] = Desc{
		Name: "oai22", Arity: 4, // out = NOT((in0+in1) * (in2+in3))
		Eval: func(in []bool) bool { return !((in[0] || in[1]) && (in[2] || in[3])) },
		devs: []tmplDev{
			{nmos, "in0", "out", "x1", 2 * wn1},
			{nmos, "in1", "out", "x1", 2 * wn1},
			{nmos, "in2", "x1", "gnd", 2 * wn1},
			{nmos, "in3", "x1", "gnd", 2 * wn1},
			{pmos, "in0", "y1", "vdd", 2 * wp1},
			{pmos, "in1", "out", "y1", 2 * wp1},
			{pmos, "in2", "y2", "vdd", 2 * wp1},
			{pmos, "in3", "out", "y2", 2 * wp1},
		},
	}
	// Static CMOS 2:1 multiplexer built from the AOI22 structure with
	// an internal select inverter: out = in0 when in2 (sel) is low,
	// in1 when high. Note the output is inverting (AOI-style), matching
	// a standard transmission-gate-free static mux followed by use as
	// an inverting mux.
	descs[Mux2] = Desc{
		Name: "mux2", Arity: 3, // in0=a, in1=b, in2=sel; out = NOT(sel ? b : a)
		Eval: func(in []bool) bool {
			if in[2] {
				return !in[1]
			}
			return !in[0]
		},
		devs: []tmplDev{
			// select inverter
			{nmos, "in2", "xs", "gnd", wn1},
			{pmos, "in2", "xs", "vdd", wp1},
			// PDN: a*nsel + b*sel
			{nmos, "in0", "out", "x1", 2 * wn1},
			{nmos, "xs", "x1", "gnd", 2 * wn1},
			{nmos, "in1", "out", "x2", 2 * wn1},
			{nmos, "in2", "x2", "gnd", 2 * wn1},
			// PUN dual: (na + sel)(nb + nsel) — series of two parallel
			// pairs.
			{pmos, "in0", "y1", "vdd", 2 * wp1},
			{pmos, "xs", "y1", "vdd", 2 * wp1},
			{pmos, "in1", "out", "y1", 2 * wp1},
			{pmos, "in2", "out", "y1", 2 * wp1},
		},
	}

	// Mirror adder carry gate: out = NOT(majority(a,b,c)) (10T with the
	// shared-node mirror structure).
	descs[MirrorCarry] = Desc{
		Name: "mcarry", Arity: 3,
		Eval: func(in []bool) bool {
			a, b, c := in[0], in[1], in[2]
			return !((a && b) || (c && (a || b)))
		},
		devs: []tmplDev{
			// PDN: ab + c(a+b)
			{nmos, "in0", "out", "x1", 2 * wn1},
			{nmos, "in1", "x1", "gnd", 2 * wn1},
			{nmos, "in2", "out", "x2", 2 * wn1},
			{nmos, "in0", "x2", "gnd", 2 * wn1},
			{nmos, "in1", "x2", "gnd", 2 * wn1},
			// PUN (mirror): ab + c(a+b) with complemented conduction
			{pmos, "in0", "out", "y1", 2 * wp1},
			{pmos, "in1", "y1", "vdd", 2 * wp1},
			{pmos, "in2", "out", "y2", 2 * wp1},
			{pmos, "in0", "y2", "vdd", 2 * wp1},
			{pmos, "in1", "y2", "vdd", 2 * wp1},
		},
	}
	// Mirror adder sum gate: out = NOT(abc + ncout*(a+b+c)) (14T).
	// in3 is the complemented carry from the mcarry gate.
	descs[MirrorSum] = Desc{
		Name: "msum", Arity: 4,
		Eval: func(in []bool) bool {
			a, b, c, nco := in[0], in[1], in[2], in[3]
			return !((a && b && c) || (nco && (a || b || c)))
		},
		devs: []tmplDev{
			// PDN: abc series
			{nmos, "in0", "out", "x1", 3 * wn1},
			{nmos, "in1", "x1", "x2", 3 * wn1},
			{nmos, "in2", "x2", "gnd", 3 * wn1},
			// PDN: ncout * (a+b+c)
			{nmos, "in3", "out", "x3", 2 * wn1},
			{nmos, "in0", "x3", "gnd", 2 * wn1},
			{nmos, "in1", "x3", "gnd", 2 * wn1},
			{nmos, "in2", "x3", "gnd", 2 * wn1},
			// PUN mirror
			{pmos, "in0", "out", "y1", 3 * wp1},
			{pmos, "in1", "y1", "y2", 3 * wp1},
			{pmos, "in2", "y2", "vdd", 3 * wp1},
			{pmos, "in3", "out", "y3", 2 * wp1},
			{pmos, "in0", "y3", "vdd", 2 * wp1},
			{pmos, "in1", "y3", "vdd", 2 * wp1},
			{pmos, "in2", "y3", "vdd", 2 * wp1},
		},
	}

	for k := Kind(0); k < numKinds; k++ {
		d := &descs[k]
		if d.Name == "" {
			panic(fmt.Sprintf("circuit: kind %d has no descriptor", k))
		}
		d.NEffWL, d.PEffWL = wn1, wp1
		d.cinWL = make([]float64, d.Arity)
		for _, dev := range d.devs {
			var idx int
			if n, err := fmt.Sscanf(dev.g, "in%d", &idx); n == 1 && err == nil && idx < d.Arity {
				d.cinWL[idx] += dev.wl
			}
			if dev.d == "out" || dev.s == "out" {
				d.drainWL += dev.wl
			}
		}
		d.nDevs = len(d.devs)
	}
}

// relabel copies a template, renaming node from to node to (no-op when
// from is empty).
func relabel(devs []tmplDev, from, to string) []tmplDev {
	out := make([]tmplDev, len(devs))
	copy(out, devs)
	if from == "" {
		return out
	}
	sub := func(n string) string {
		if n == from {
			return to
		}
		return n
	}
	for i := range out {
		out[i].g = sub(out[i].g)
		out[i].d = sub(out[i].d)
		out[i].s = sub(out[i].s)
	}
	return out
}

// KindByName resolves a library gate name ("inv", "nand2", ...).
func KindByName(name string) (Kind, error) {
	for k := Kind(0); k < numKinds; k++ {
		if descs[k].Name == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("circuit: unknown gate kind %q", name)
}

// String returns the library name of the kind.
func (k Kind) String() string {
	if k < 0 || k >= numKinds {
		return fmt.Sprintf("kind(%d)", int(k))
	}
	return descs[k].Name
}

// Arity returns the number of inputs of the kind.
func (k Kind) Arity() int { return descs[k].Arity }

// Eval computes the Boolean function of the kind.
func (k Kind) Eval(in []bool) bool { return descs[k].Eval(in) }

// Transistors returns the number of transistors in the kind's template.
func (k Kind) Transistors() int { return descs[k].nDevs }
