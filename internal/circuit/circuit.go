package circuit

import (
	"fmt"
	"sort"
	"sync"

	"mtcmos/internal/mosfet"
)

// Net is a named signal in the circuit. A net is driven either by a
// primary input or by exactly one gate output.
type Net struct {
	Name    string
	ID      int
	Driver  *Gate   // nil for primary inputs
	Loads   []*Gate // gates with this net as an input
	CLoad   float64 // explicit extra load capacitance (F)
	IsInput bool
	IsOut   bool // marked as an observed output
}

// Gate is one instance of a library gate.
type Gate struct {
	Name string
	Kind Kind
	Size float64 // drive multiplier; scales every template width
	In   []*Net
	Out  *Net
	ID   int // index in Circuit.Gates

	// Domain is the sleep domain whose virtual-ground rail this gate's
	// pulldown network connects to (see Circuit.Domains). Gates default
	// to domain 0.
	Domain int
}

// Desc returns the library descriptor of the gate's kind.
func (g *Gate) Desc() *Desc { return &descs[g.Kind] }

// Domain is one MTCMOS sleep domain: a virtual-ground rail gated by
// its own NMOS sleep transistor. Hierarchical sizing (the authors'
// DAC'98 follow-up) partitions a circuit into several domains so that
// blocks with mutually exclusive discharge patterns can share smaller
// devices.
type Domain struct {
	Name    string
	SleepWL float64 // 0 = rail tied to real ground (plain CMOS block)
	VGndCap float64 // parasitic capacitance on this rail
}

// Circuit is a combinational gate-level circuit with an optional MTCMOS
// sleep transistor on the shared virtual-ground rail (or several, one
// per Domain).
type Circuit struct {
	Name string
	Tech *mosfet.Tech

	Gates  []*Gate
	Inputs []*Net // primary inputs, in declaration order

	// SleepWL is the W/L of the NMOS sleep transistor between virtual
	// ground and ground. Zero means no sleep device: a plain CMOS
	// circuit with the pulldown rail tied to real ground. It is the
	// configuration of the default domain 0; for multi-domain circuits
	// use AddDomain and Gate.Domain instead.
	SleepWL float64

	// VGndCap is the explicit parasitic capacitance on the virtual
	// ground line (paper section 2.2); domain 0's rail.
	VGndCap float64

	// extraDomains holds domains 1..N added via AddDomain. Domain 0 is
	// always the implicit (SleepWL, VGndCap) pair above.
	extraDomains []Domain

	nets     map[string]*Net
	netOrder []*Net

	topoMu sync.Mutex
	topo   []*Gate // cached topological order, guarded by topoMu
}

// New returns an empty circuit over the given technology.
func New(name string, tech *mosfet.Tech) *Circuit {
	return &Circuit{Name: name, Tech: tech, nets: map[string]*Net{}}
}

// Net returns the named net, creating it if necessary.
func (c *Circuit) Net(name string) *Net {
	if n, ok := c.nets[name]; ok {
		return n
	}
	n := &Net{Name: name, ID: len(c.netOrder)}
	c.nets[name] = n
	c.netOrder = append(c.netOrder, n)
	return n
}

// FindNet returns the named net or nil.
func (c *Circuit) FindNet(name string) *Net { return c.nets[name] }

// Nets returns all nets in creation order.
func (c *Circuit) Nets() []*Net { return c.netOrder }

// Input declares (or returns) a primary input net.
func (c *Circuit) Input(name string) *Net {
	n := c.Net(name)
	if !n.IsInput {
		if n.Driver != nil {
			panic(fmt.Sprintf("circuit: net %q already driven by gate %q", name, n.Driver.Name))
		}
		n.IsInput = true
		c.Inputs = append(c.Inputs, n)
	}
	return n
}

// MarkOutput flags a net as an observed circuit output.
func (c *Circuit) MarkOutput(name string) *Net {
	n := c.Net(name)
	n.IsOut = true
	return n
}

// Outputs returns the observed outputs in net-creation order.
func (c *Circuit) Outputs() []*Net {
	var out []*Net
	for _, n := range c.netOrder {
		if n.IsOut {
			out = append(out, n)
		}
	}
	return out
}

// OutputNames returns the observed outputs' names in net-creation
// order: the nets a transition's delay is measured on.
func (c *Circuit) OutputNames() []string {
	var out []string
	for _, n := range c.Outputs() {
		out = append(out, n.Name)
	}
	return out
}

// SetLoad attaches an explicit load capacitance to a net.
func (c *Circuit) SetLoad(name string, farads float64) {
	c.Net(name).CLoad = farads
}

// AddGate instantiates a library gate driving net out from the named
// input nets. Size 1 is unit drive. The gate name must be unique only
// for readability; the output net name identifies the gate uniquely.
func (c *Circuit) AddGate(kind Kind, name, out string, size float64, ins ...string) (*Gate, error) {
	d := &descs[kind]
	if len(ins) != d.Arity {
		return nil, fmt.Errorf("circuit: gate %s (%s) takes %d inputs, got %d", name, d.Name, d.Arity, len(ins))
	}
	if size <= 0 {
		return nil, fmt.Errorf("circuit: gate %s: size must be positive, got %g", name, size)
	}
	on := c.Net(out)
	if on.Driver != nil {
		return nil, fmt.Errorf("circuit: net %q driven by both %q and %q", out, on.Driver.Name, name)
	}
	if on.IsInput {
		return nil, fmt.Errorf("circuit: net %q is a primary input and cannot be driven by gate %q", out, name)
	}
	g := &Gate{Name: name, Kind: kind, Size: size, Out: on, ID: len(c.Gates)}
	for _, in := range ins {
		inNet := c.Net(in)
		g.In = append(g.In, inNet)
		inNet.Loads = append(inNet.Loads, g)
	}
	on.Driver = g
	c.Gates = append(c.Gates, g)
	c.topoMu.Lock()
	c.topo = nil
	c.topoMu.Unlock()
	return g, nil
}

// MustGate is AddGate that panics on error; intended for the circuit
// generators, whose structures are correct by construction.
func (c *Circuit) MustGate(kind Kind, name, out string, size float64, ins ...string) *Gate {
	g, err := c.AddGate(kind, name, out, size, ins...)
	if err != nil {
		panic(err)
	}
	return g
}

// Check validates the circuit: every net is either a primary input or
// gate-driven (dangling inputs are reported), and the gate graph is
// acyclic. It caches and returns the topological order.
func (c *Circuit) Check() error {
	for _, n := range c.netOrder {
		if n.Driver == nil && !n.IsInput {
			return fmt.Errorf("circuit %s: net %q is neither an input nor driven", c.Name, n.Name)
		}
	}
	_, err := c.Topo()
	return err
}

// CycleError reports a combinational cycle in the gate graph. Gates
// lists, sorted by name, every gate stuck on the cycle (the cycle's
// members plus anything downstream of them that could not be ordered).
// Callers that need to distinguish a cycle from other structural
// failures unwrap it with errors.As.
type CycleError struct {
	Circuit string   // circuit name
	Gates   []string // gates on or downstream of the cycle, sorted
}

func (e *CycleError) Error() string {
	return fmt.Sprintf("circuit %s: combinational cycle through gates %v", e.Circuit, e.Gates)
}

// Topo returns the gates in topological order (inputs first). It fails
// with a *CycleError on combinational cycles. Safe for concurrent use
// once construction is finished: parallel sweeps may race to fill the
// cache on first use.
func (c *Circuit) Topo() ([]*Gate, error) {
	c.topoMu.Lock()
	defer c.topoMu.Unlock()
	if c.topo != nil {
		return c.topo, nil
	}
	indeg := make([]int, len(c.Gates))
	for _, g := range c.Gates {
		for _, in := range g.In {
			if in.Driver != nil {
				indeg[g.ID]++
			}
		}
	}
	queue := make([]*Gate, 0, len(c.Gates))
	for _, g := range c.Gates {
		if indeg[g.ID] == 0 {
			queue = append(queue, g)
		}
	}
	order := make([]*Gate, 0, len(c.Gates))
	for len(queue) > 0 {
		g := queue[0]
		queue = queue[1:]
		order = append(order, g)
		for _, ld := range g.Out.Loads {
			indeg[ld.ID]--
			if indeg[ld.ID] == 0 {
				queue = append(queue, ld)
			}
		}
	}
	if len(order) != len(c.Gates) {
		var stuck []string
		for _, g := range c.Gates {
			if indeg[g.ID] > 0 {
				stuck = append(stuck, g.Name)
			}
		}
		sort.Strings(stuck)
		return nil, &CycleError{Circuit: c.Name, Gates: stuck}
	}
	c.topo = order
	return order, nil
}

// Evaluate computes steady-state logic values for all nets given values
// for every primary input. Missing inputs default to false.
func (c *Circuit) Evaluate(inputs map[string]bool) (map[string]bool, error) {
	order, err := c.Topo()
	if err != nil {
		return nil, err
	}
	vals := make([]bool, len(c.netOrder))
	for _, in := range c.Inputs {
		vals[in.ID] = inputs[in.Name]
	}
	EvalNets(order, vals)
	out := make(map[string]bool, len(c.netOrder))
	for _, in := range c.Inputs {
		out[in.Name] = vals[in.ID]
	}
	for _, g := range order {
		out[g.Out.Name] = vals[g.Out.ID]
	}
	return out, nil
}

// EvalNets is Evaluate on net indices: given the primary inputs'
// values in vals (indexed by Net.ID), it sets every gate output's
// steady-state value, visiting the gates in the topological order
// that Topo returns.
func EvalNets(order []*Gate, vals []bool) {
	buf := make([]bool, MaxArity)
	for _, g := range order {
		vals[g.Out.ID] = g.Eval(vals, buf)
	}
}

// Eval returns the gate's output for the net values in vals (indexed
// by Net.ID). buf is scratch space for at least len(g.In) inputs.
func (g *Gate) Eval(vals, buf []bool) bool {
	in := buf[:len(g.In)]
	for i, n := range g.In {
		in[i] = vals[n.ID]
	}
	return g.Kind.Eval(in)
}

// Stats summarizes the circuit.
type Stats struct {
	Gates       int
	Nets        int
	Inputs      int
	Outputs     int
	Transistors int // low-Vt logic transistors (excl. the sleep device)
}

// Stats returns circuit statistics.
func (c *Circuit) Stats() Stats {
	s := Stats{Gates: len(c.Gates), Nets: len(c.netOrder), Inputs: len(c.Inputs)}
	for _, n := range c.netOrder {
		if n.IsOut {
			s.Outputs++
		}
	}
	for _, g := range c.Gates {
		s.Transistors += g.Kind.Transistors()
	}
	return s
}

// NMOSWidthWL returns the summed W/L of the gate's low-Vt NMOS
// pulldown transistors at its drive size: this gate's contribution to
// the sum-of-widths sleep estimate, and the weight the static
// level-bound analysis (internal/sca) assigns it.
func (g *Gate) NMOSWidthWL() float64 {
	total := 0.0
	for _, dev := range g.Desc().devs {
		if dev.pol == nmos {
			total += dev.wl * g.Size
		}
	}
	return total
}

// SumNMOSWidthWL returns the summed W/L of every low-Vt NMOS pulldown
// transistor in the circuit: the naive sleep-transistor sizing estimate
// the paper calls out as "unnecessarily large" (section 2).
func (c *Circuit) SumNMOSWidthWL() float64 {
	total := 0.0
	for _, g := range c.Gates {
		total += g.NMOSWidthWL()
	}
	return total
}

// --- Equivalent-inverter extraction (paper section 5.2) ---

// EquivGate is the switch-level simulator's view of one gate: an
// equivalent inverter with a pulldown gain factor, a pullup gain
// factor, and a lumped output load.
type EquivGate struct {
	BetaN float64 // effective pulldown KPn*(W/L) (A/V^2)
	BetaP float64 // effective pullup KPp*(W/L)
	CL    float64 // lumped output load (F)
}

// InputCap returns the gate capacitance presented by input pin of a
// gate: CoxArea * L^2 * sum of connected device W/L, scaled by Size.
func (c *Circuit) InputCap(g *Gate, pin int) float64 {
	d := g.Desc()
	l := c.Tech.Lmin
	return c.Tech.CoxArea * l * l * d.cinWL[pin] * g.Size
}

// DrainCap returns the junction capacitance the gate's own output
// devices contribute to its output net.
func (c *Circuit) DrainCap(g *Gate) float64 {
	d := g.Desc()
	return c.Tech.CjWidth * c.Tech.Lmin * d.drainWL * g.Size
}

// NetCap returns the total capacitance lumped on a net: explicit load,
// fanout input caps, and the driver's drain cap.
func (c *Circuit) NetCap(n *Net) float64 {
	total := n.CLoad
	for _, ld := range n.Loads {
		for pin, in := range ld.In {
			if in == n {
				total += c.InputCap(ld, pin)
			}
		}
	}
	if n.Driver != nil {
		total += c.DrainCap(n.Driver)
	}
	return total
}

// Equiv extracts the equivalent-inverter parameters for every gate,
// indexed by gate ID.
func (c *Circuit) Equiv() []EquivGate {
	out := make([]EquivGate, len(c.Gates))
	for _, g := range c.Gates {
		d := g.Desc()
		out[g.ID] = EquivGate{
			BetaN: c.Tech.KPn * d.NEffWL * g.Size,
			BetaP: c.Tech.KPp * d.PEffWL * g.Size,
			CL:    c.NetCap(g.Out),
		}
	}
	return out
}

// SleepResistance returns the effective resistance of the circuit's
// sleep transistor, or 0 when the circuit has no sleep device (plain
// CMOS: ideal ground). For multi-domain circuits this is domain 0's
// resistance; see DomainResistances.
func (c *Circuit) SleepResistance() (float64, error) {
	if c.SleepWL <= 0 {
		return 0, nil
	}
	return mosfet.SleepResistance(c.Tech, c.SleepWL)
}

// AddDomain registers an additional sleep domain and returns its index
// (>= 1). Domain 0 always exists and is configured by the circuit's
// SleepWL / VGndCap fields. Assign gates with SetDomain or by setting
// Gate.Domain.
func (c *Circuit) AddDomain(d Domain) int {
	c.extraDomains = append(c.extraDomains, d)
	return len(c.extraDomains)
}

// Domains returns every sleep domain, index-aligned with Gate.Domain.
// Domain 0 reflects the circuit-level SleepWL / VGndCap.
func (c *Circuit) Domains() []Domain {
	out := make([]Domain, 0, 1+len(c.extraDomains))
	out = append(out, Domain{Name: "d0", SleepWL: c.SleepWL, VGndCap: c.VGndCap})
	out = append(out, c.extraDomains...)
	return out
}

// SetDomainWL reconfigures a domain's sleep size in place.
func (c *Circuit) SetDomainWL(idx int, wl float64) error {
	switch {
	case idx == 0:
		c.SleepWL = wl
	case idx >= 1 && idx <= len(c.extraDomains):
		c.extraDomains[idx-1].SleepWL = wl
	default:
		return fmt.Errorf("circuit %s: no domain %d", c.Name, idx)
	}
	return nil
}

// SetDomain assigns a gate (by output net name) to a sleep domain.
func (c *Circuit) SetDomain(outNet string, domain int) error {
	n := c.nets[outNet]
	if n == nil || n.Driver == nil {
		return fmt.Errorf("circuit %s: no gate drives net %q", c.Name, outNet)
	}
	if domain < 0 || domain > len(c.extraDomains) {
		return fmt.Errorf("circuit %s: no domain %d", c.Name, domain)
	}
	n.Driver.Domain = domain
	return nil
}

// DomainResistances returns the sleep resistance of every domain
// (0 for rails tied to real ground).
func (c *Circuit) DomainResistances() ([]float64, error) {
	doms := c.Domains()
	out := make([]float64, len(doms))
	for i, d := range doms {
		if d.SleepWL <= 0 {
			continue
		}
		r, err := mosfet.SleepResistance(c.Tech, d.SleepWL)
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

// SumNMOSWidthWLDomain returns the summed pulldown W/L of the gates in
// one domain (the per-block sum-of-widths bound).
func (c *Circuit) SumNMOSWidthWLDomain(domain int) float64 {
	total := 0.0
	for _, g := range c.Gates {
		if g.Domain == domain {
			total += g.NMOSWidthWL()
		}
	}
	return total
}
