package circuit

import (
	"fmt"
	"strings"

	"mtcmos/internal/netlist"
	"mtcmos/internal/wave"
)

// Model names used in expanded netlists; the transient engine maps them
// back onto device archetypes.
const (
	ModelNMOS    = "nmos"
	ModelPMOS    = "pmos"
	ModelNMOSHvt = "nmos_hvt"
	ModelPMOSHvt = "pmos_hvt"
)

// Well-known node names in expanded netlists.
const (
	NodeVdd   = "vdd"
	NodeVGnd  = "vgnd"    // virtual ground rail (MTCMOS mode)
	NodeSleep = "sleepen" // sleep transistor gate
)

// Stimulus describes the input-vector transition applied to a deck:
// inputs hold Old until TEdge, then ramp to New over TRise. Inputs
// missing from the maps default to false.
type Stimulus struct {
	Old, New map[string]bool
	TEdge    float64
	TRise    float64
}

// The paper's input edge, applied to every benchmark transition:
// inputs start switching at EdgeAt and ramp over EdgeRise (1 ns /
// 50 ps).
const (
	EdgeAt   = 1e-9
	EdgeRise = 50e-12
)

// Transition is an input-vector pair: the unit the sizing methods, the
// hierarchical analysis and the experiments evaluate. Label names it
// in errors and warnings.
type Transition struct {
	Old, New map[string]bool
	Label    string
}

// Stimulus applies the paper's input edge to the pair.
func (tr Transition) Stimulus() Stimulus {
	return Stimulus{Old: tr.Old, New: tr.New, TEdge: EdgeAt, TRise: EdgeRise}
}

// Netlist expands the circuit into a flat transistor-level deck:
// gate templates instantiated per gate, explicit lumped caps per net
// (matching NetCap so the two engines see identical loading), the
// supply, the sleep transistor (when SleepWL > 0) with its virtual
// ground rail and optional parasitic cap, and PWL input sources per the
// stimulus.
func (c *Circuit) Netlist(stim Stimulus) (*netlist.Netlist, error) {
	if err := c.Check(); err != nil {
		return nil, err
	}
	if c.Tech == nil {
		return nil, fmt.Errorf("circuit %s: no technology attached", c.Name)
	}
	for _, n := range c.netOrder {
		switch netName(n.Name) {
		case NodeVdd, NodeVGnd, NodeSleep, netlist.Ground:
			return nil, fmt.Errorf("circuit %s: net name %q collides with a reserved netlist node", c.Name, n.Name)
		}
	}
	nl := netlist.New(fmt.Sprintf("* %s (%s)", c.Name, c.Tech.Name))
	top := nl.Top

	// Per-domain virtual-ground rails: domain 0 keeps the legacy node
	// name, further domains get indexed rails. A domain without a
	// sleep device ties straight to ground.
	doms := c.Domains()
	rails := make([]string, len(doms))
	for di, d := range doms {
		switch {
		case d.SleepWL <= 0:
			rails[di] = netlist.Ground
		case di == 0:
			rails[di] = NodeVGnd
		default:
			rails[di] = fmt.Sprintf("%s%d", NodeVGnd, di)
		}
	}

	l := c.Tech.Lmin
	for _, g := range c.Gates {
		if g.Domain < 0 || g.Domain >= len(doms) {
			return nil, fmt.Errorf("circuit %s: gate %s assigned to unknown domain %d", c.Name, g.Name, g.Domain)
		}
		rail := rails[g.Domain]
		prefix := sanitize(g.Name)
		mapNode := func(label string) string {
			switch {
			case label == "out":
				return netName(g.Out.Name)
			case label == "vdd":
				return NodeVdd
			case label == "gnd":
				return rail
			case strings.HasPrefix(label, "in"):
				var idx int
				fmt.Sscanf(label, "in%d", &idx)
				return netName(g.In[idx].Name)
			default: // internal template node
				return prefix + "." + label
			}
		}
		for i, dev := range g.Desc().devs {
			model := ModelNMOS
			bulk := netlist.Ground
			if dev.pol == pmos {
				model = ModelPMOS
				bulk = NodeVdd
			}
			top.MOS = append(top.MOS, netlist.MOS{
				Name:  fmt.Sprintf("m%s_%d", prefix, i),
				D:     mapNode(dev.d),
				G:     mapNode(dev.g),
				S:     mapNode(dev.s),
				B:     bulk,
				Model: model,
				W:     dev.wl * g.Size * l,
				L:     l,
			})
		}
	}

	// Lumped caps per net, identical to the switch-level loading.
	for _, n := range c.netOrder {
		load := c.NetCap(n)
		if n.Driver == nil {
			// Input nets are driven by ideal sources; their cap only
			// slows the source, which is ideal anyway. Skip.
			continue
		}
		if load > 0 {
			top.Caps = append(top.Caps, netlist.Cap{
				Name: "c" + sanitize(n.Name),
				A:    netName(n.Name),
				B:    netlist.Ground,
				F:    load,
			})
		}
	}

	// Supply.
	top.Vs = append(top.Vs, netlist.Vsrc{Name: "vvdd", P: NodeVdd, N: netlist.Ground, DC: c.Tech.Vdd})

	// Sleep transistors and virtual grounds, one per gated domain; the
	// sleep gates share one control source.
	anySleep := false
	for di, d := range doms {
		if d.SleepWL <= 0 {
			continue
		}
		anySleep = true
		top.MOS = append(top.MOS, netlist.MOS{
			Name:  fmt.Sprintf("msleep%d", di),
			D:     rails[di],
			G:     NodeSleep,
			S:     netlist.Ground,
			B:     netlist.Ground,
			Model: ModelNMOSHvt,
			W:     d.SleepWL * l,
			L:     l,
		})
		if d.VGndCap > 0 {
			top.Caps = append(top.Caps, netlist.Cap{
				Name: fmt.Sprintf("cvgnd%d", di),
				A:    rails[di],
				B:    netlist.Ground,
				F:    d.VGndCap,
			})
		}
	}
	if anySleep {
		top.Vs = append(top.Vs, netlist.Vsrc{Name: "vsleep", P: NodeSleep, N: netlist.Ground, DC: c.Tech.Vdd})
	}

	// Input sources.
	for _, in := range c.Inputs {
		v0, v1 := 0.0, 0.0
		if stim.Old[in.Name] {
			v0 = c.Tech.Vdd
		}
		if stim.New[in.Name] {
			v1 = c.Tech.Vdd
		}
		vs := netlist.Vsrc{Name: "v" + sanitize(in.Name), P: netName(in.Name), N: netlist.Ground}
		if v0 == v1 {
			vs.DC = v0
		} else {
			tr := stim.TRise
			if tr <= 0 {
				tr = 1e-12
			}
			vs.PWL = wave.Step(stim.TEdge, tr, v0, v1)
		}
		top.Vs = append(top.Vs, vs)
	}
	return nl, nil
}

// netName maps a circuit net name to its netlist node name; names are
// lowercased to match the dialect's case-insensitivity.
func netName(n string) string { return netlist.CanonNode(sanitize(n)) }

// NetlistNode is the exported form of the circuit-net to netlist-node
// mapping: the node name a net receives when the circuit is expanded
// with Netlist. Static analyses over the expanded deck (internal/sca's
// exclusion refinement) use it to translate gate outputs to deck nets.
func NetlistNode(name string) string { return netName(name) }

func sanitize(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9' || r == '_' || r == '.':
			b.WriteRune(r)
		case r >= 'A' && r <= 'Z':
			b.WriteRune(r + 'a' - 'A')
		case r == '[':
			b.WriteByte('_')
		case r == ']':
			// drop
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}
