package lint

import (
	"math"
	"strings"
	"testing"

	"mtcmos/internal/circuit"
	"mtcmos/internal/circuits"
	"mtcmos/internal/mosfet"
	"mtcmos/internal/netlist"
	"mtcmos/internal/wave"
)

func codesOf(diags []Diagnostic) map[string]int {
	m := map[string]int{}
	for _, d := range diags {
		m[d.Code]++
	}
	return m
}

func TestRegistryStable(t *testing.T) {
	seen := map[string]bool{}
	prev := ""
	for _, r := range Rules() {
		code := r.Code()
		if seen[code] {
			t.Errorf("duplicate rule code %s", code)
		}
		seen[code] = true
		if code <= prev {
			t.Errorf("rules out of code order: %s after %s", code, prev)
		}
		prev = code
		if r.Title() == "" {
			t.Errorf("rule %s has no title", code)
		}
		if !strings.HasPrefix(code, "MT") {
			t.Errorf("rule code %q not MTxxx", code)
		}
	}
	if len(seen) < 12 {
		t.Errorf("registry has %d rules, want >= 12", len(seen))
	}
}

func TestSeverityRoundTrip(t *testing.T) {
	for _, sev := range []Severity{Info, Warn, Error} {
		got, err := ParseSeverity(sev.String())
		if err != nil || got != sev {
			t.Errorf("ParseSeverity(%q) = %v, %v", sev.String(), got, err)
		}
	}
	if _, err := ParseSeverity("fatal"); err == nil {
		t.Error("ParseSeverity should reject unknown names")
	}
}

const brokenDeck = `broken deck
Vdd vdd 0 DC 1.2
Vin in 0 DC 0
Vslp sleepen 0 DC 1.2
Mp out in vdd vdd pmos W=2.8u L=0.7u
Mn out in vgnd 0 nmos W=1.4u L=0.7u
Msleep vgnd sleepen 0 0 nmos_hvt W=0 L=0.7u
Cfloat dangle 0 10f
`

func TestBrokenDeckFindings(t *testing.T) {
	nl, err := netlist.ParseString(brokenDeck)
	if err != nil {
		t.Fatal(err)
	}
	tech := mosfet.Tech07()
	diags := Run(nl, nil, &tech)
	codes := codesOf(diags)
	// The floating node trips both the single-terminal and the no-DC-path
	// rules; the zero-width sleep device trips the geometry rule.
	for _, want := range []string{"MT001", "MT002", "MT007"} {
		if codes[want] == 0 {
			t.Errorf("missing %s in findings: %v", want, diags)
		}
	}
	if !HasErrors(diags) {
		t.Error("broken deck must produce error-severity findings")
	}
}

func TestConnectivityRules(t *testing.T) {
	deck := `conn
Vdd vdd 0 DC 1.2
M1 out a vdd vdd pmos W=2u L=0.7u
M1 out a 0 0 nmos W=1u L=0.7u
Mshort x a x 0 nmos W=1u L=0.7u
C1 iso1 iso2 5f
`
	nl, err := netlist.ParseString(deck)
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(nl, nil, nil)
	codes := codesOf(diags)
	if codes["MT003"] == 0 {
		t.Errorf("duplicate device name not flagged: %v", diags)
	}
	if codes["MT002"] < 2 {
		t.Errorf("cap-isolated nodes should have no DC path: %v", diags)
	}
	if codes["MT006"] == 0 {
		t.Errorf("shorted channel (x-x) not flagged: %v", diags)
	}
}

func TestSubcktRules(t *testing.T) {
	deck := `subs
.subckt inv in out vdd unusedport
  Mp out in vdd vdd pmos W=2u L=0.7u
  Mn out in 0 0 nmos W=1u L=0.7u
.ends
.subckt orphan a
  R1 a 0 1k
.ends
Vdd vdd 0 DC 1.2
Xi in out vdd nc inv
Vin in 0 DC 0
`
	nl, err := netlist.ParseString(deck)
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(nl, nil, nil)
	codes := codesOf(diags)
	if codes["MT004"] == 0 {
		t.Errorf("unused subckt port not flagged: %v", diags)
	}
	if codes["MT005"] == 0 {
		t.Errorf("uninstantiated subckt not flagged: %v", diags)
	}
}

func TestElectricalRules(t *testing.T) {
	nl := netlist.New("electric")
	nl.Top.Vs = append(nl.Top.Vs,
		netlist.Vsrc{Name: "vdd", P: "vdd", N: "0", DC: 1.2},
		netlist.Vsrc{Name: "vbad", P: "a", N: "0",
			PWL: &wave.PWL{T: []float64{0, 2e-9, 1e-9}, V: []float64{0, 1.2, 0}}},
		netlist.Vsrc{Name: "vhot", P: "b", N: "0", DC: 9.9},
	)
	nl.Top.Ress = append(nl.Top.Ress,
		netlist.Res{Name: "ra", A: "a", B: "b", Ohms: 1e3},
		netlist.Res{Name: "rzero", A: "a", B: "0", Ohms: 0},
	)
	nl.Top.Caps = append(nl.Top.Caps, netlist.Cap{Name: "cneg", A: "b", B: "0", F: -1e-15})
	tech := mosfet.Tech07()
	diags := Run(nl, nil, &tech)
	codes := codesOf(diags)
	for _, want := range []string{"MT008", "MT010", "MT011"} {
		if codes[want] == 0 {
			t.Errorf("missing %s: %v", want, diags)
		}
	}
}

func TestProcessWindowRule(t *testing.T) {
	deck := `window
Vdd vdd 0 DC 1.2
Vin in 0 DC 0
Mtiny out in vdd vdd pmos W=2u L=0.1u
Mn out in 0 0 nmos W=1.4u L=0.7u
`
	nl, err := netlist.ParseString(deck)
	if err != nil {
		t.Fatal(err)
	}
	tech := mosfet.Tech07() // Lmin = 0.7u, so L=0.1u is under-length
	diags := Run(nl, nil, &tech)
	if codesOf(diags)["MT009"] == 0 {
		t.Errorf("under-length device not flagged: %v", diags)
	}
	// Without a technology the window rule stays silent.
	diags = Run(nl, nil, nil)
	if codesOf(diags)["MT009"] != 0 {
		t.Errorf("MT009 fired without a tech: %v", diags)
	}
}

func TestMTCMOSNetlistRules(t *testing.T) {
	// A low-Vt "sleep" device on a named virtual-ground rail.
	lowVt := `lowvt
Vdd vdd 0 DC 1.2
Vin in 0 DC 0
Vslp sleepen 0 DC 1.2
Mp out in vdd vdd pmos W=2.8u L=0.7u
Mn out in vgnd 0 nmos W=1.4u L=0.7u
Msleep vgnd sleepen 0 0 nmos W=10u L=0.7u
`
	nl, err := netlist.ParseString(lowVt)
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(nl, nil, nil)
	if codesOf(diags)["MT014"] == 0 {
		t.Errorf("low-Vt sleep transistor not flagged: %v", diags)
	}

	// A named rail with no device to ground at all.
	noSleep := `nosleep
Vdd vdd 0 DC 1.2
Vin in 0 DC 0
Mp out in vdd vdd pmos W=2.8u L=0.7u
Mn out in vgnd 0 nmos W=1.4u L=0.7u
Cx vgnd 0 1p
`
	nl, err = netlist.ParseString(noSleep)
	if err != nil {
		t.Fatal(err)
	}
	diags = Run(nl, nil, nil)
	if codesOf(diags)["MT012"] == 0 {
		t.Errorf("missing sleep transistor not flagged: %v", diags)
	}

	// Two sleep devices gating one rail.
	double := `double
Vdd vdd 0 DC 1.2
Vin in 0 DC 0
Vslp sleepen 0 DC 1.2
Mp out in vdd vdd pmos W=2.8u L=0.7u
Mn out in vgnd 0 nmos W=1.4u L=0.7u
Ms1 vgnd sleepen 0 0 nmos_hvt W=7u L=0.7u
Ms2 vgnd sleepen 0 0 nmos_hvt W=7u L=0.7u
`
	nl, err = netlist.ParseString(double)
	if err != nil {
		t.Fatal(err)
	}
	diags = Run(nl, nil, nil)
	if codesOf(diags)["MT013"] == 0 {
		t.Errorf("doubled sleep transistor not flagged: %v", diags)
	}
}

func TestCircuitRules(t *testing.T) {
	tech := mosfet.Tech07()

	// Undriven net.
	c := circuit.New("undriven", &tech)
	c.Input("a")
	c.MustGate(circuit.Inv, "g1", "x", 1, "a")
	c.Net("orphan")
	diags := Run(nil, c, nil)
	if codesOf(diags)["MT001"] == 0 {
		t.Errorf("undriven net not flagged: %v", diags)
	}

	// Combinational cycle.
	cyc := circuit.New("cycle", &tech)
	cyc.MustGate(circuit.Inv, "g1", "a", 1, "b")
	cyc.MustGate(circuit.Inv, "g2", "b", 1, "a")
	diags = Run(nil, cyc, nil)
	if codesOf(diags)["MT015"] == 0 {
		t.Errorf("combinational cycle not flagged: %v", diags)
	}

	// Virtual-ground cap without a sleep device, and an oversized sleep.
	mis := circuits.InverterChain(&tech, 2, 10e-15)
	mis.VGndCap = 1e-12
	mis.SleepWL = 0
	diags = Run(nil, mis, nil)
	if codesOf(diags)["MT012"] == 0 {
		t.Errorf("VGndCap without sleep device not flagged: %v", diags)
	}
	mis.SleepWL = 1e6
	diags = Run(nil, mis, nil)
	if codesOf(diags)["MT016"] == 0 {
		t.Errorf("oversized sleep device not flagged: %v", diags)
	}

	// Invalid sleep-domain values: a negative or non-finite
	// virtual-ground capacitance (MT008) and a non-finite sleep W/L
	// (MT007) are errors naming the domain.
	for _, tc := range []struct {
		code   string
		wl, cx float64
	}{
		{"MT008", 5, -1e-12},
		{"MT008", 5, math.NaN()},
		{"MT007", math.NaN(), 0},
		{"MT007", math.Inf(1), 0},
	} {
		bad := circuits.InverterChain(&tech, 2, 10e-15)
		bad.SleepWL, bad.VGndCap = tc.wl, tc.cx
		found := false
		for _, d := range Run(nil, bad, nil) {
			if d.Code == tc.code && d.Severity == Error && d.Subject == "d0" {
				found = true
			}
		}
		if !found {
			t.Errorf("W/L %g, Cx %g: no %s error on domain d0", tc.wl, tc.cx, tc.code)
		}
	}
}

func TestCheckVectors(t *testing.T) {
	tech := mosfet.Tech07()
	c := circuits.InverterChain(&tech, 2, 10e-15)
	diags := CheckVectors(c, map[string]bool{"in": false, "bogus": true}, map[string]bool{"in": true})
	codes := codesOf(diags)
	if codes[VectorCode] == 0 {
		t.Fatalf("stray vector bit not flagged: %v", diags)
	}
	if !HasErrors(diags) {
		t.Error("driving a non-input must be an error")
	}
	if diags := CheckVectors(c, map[string]bool{"in": false}, map[string]bool{"in": true}); len(diags) != 0 {
		t.Errorf("well-formed vectors flagged: %v", diags)
	}
	if diags := CheckVectors(c, nil, nil); !strings.Contains(diags[0].Message, "unspecified") {
		t.Errorf("missing inputs should be advisory: %v", diags)
	}
}

func TestCleanExpandedCircuits(t *testing.T) {
	tech := mosfet.Tech07()
	tree := circuits.InverterTree(&tech, 3, 3, 50e-15)
	tree.SleepWL = 8
	stim := circuit.Stimulus{
		Old:   map[string]bool{"in": false},
		New:   map[string]bool{"in": true},
		TEdge: 1e-9, TRise: 50e-12,
	}
	nl, err := tree.Netlist(stim)
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(nl, tree, &tech)
	if errs := Filter(diags, Error); len(errs) != 0 {
		t.Errorf("expanded paper tree must lint clean at error severity, got %v", errs)
	}
}

func TestFilterCountSort(t *testing.T) {
	diags := []Diagnostic{
		{Code: "MT009", Severity: Warn, Subject: "b"},
		{Code: "MT001", Severity: Error, Subject: "a"},
		{Code: "MT005", Severity: Info, Subject: "c"},
		{Code: "MT001", Severity: Error, Subject: "0"},
	}
	Sort(diags)
	if diags[0].Subject != "0" || diags[0].Code != "MT001" {
		t.Errorf("sort order wrong: %v", diags)
	}
	if n := Count(diags, Error); n != 2 {
		t.Errorf("Count(Error) = %d", n)
	}
	if got := Filter(diags, Warn); len(got) != 3 {
		t.Errorf("Filter(Warn) kept %d", len(got))
	}
	if HasErrors(diags) != true {
		t.Error("HasErrors wrong")
	}
}
