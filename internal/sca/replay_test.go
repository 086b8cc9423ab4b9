package sca

import (
	"fmt"
	"strings"
	"testing"

	"mtcmos/internal/circuit"
	"mtcmos/internal/circuits"
	"mtcmos/internal/mosfet"
	"mtcmos/internal/netlist"
	"mtcmos/internal/sat"
)

// replayCard is one device card of a FuzzReplay deck. kind%3 picks
// NMOS, PMOS or a resistor; d, g and s index the case's node pool
// (a resistor ignores g).
type replayCard struct{ kind, d, g, s byte }

// replayBit is one model entry: net indexes the node pool, whose one
// extra slot is a net the deck does not have; val&1 is the value.
type replayBit struct{ net, val byte }

// replayCase is one decoded FuzzReplay input: a small deck over vdd,
// ground, inputs in0.. and internal nets n0.., a partial model, and a
// CheckShort probe between two pool nodes.
type replayCase struct {
	inputs, nets int          // 1–3 PWL inputs, 1–8 internal nets
	cards        []replayCard // 1–16 cards; cards[0] joins two rails
	caps         byte         // bit k loads net nk with a cap
	model        []replayBit
	from, to     byte // the probe's end nodes (pool indices)
	bogus        bool // the probe also names a device not in the deck
}

// decodeReplayCase reads a case from fuzz bytes; missing bytes read as
// zero, so every input decodes.
func decodeReplayCase(data []byte) replayCase {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	b := next()
	c := replayCase{inputs: 1 + int(b%3), nets: 1 + int(b/3%8)}
	c.cards = make([]replayCard, 1+int(next()%16))
	for i := range c.cards {
		c.cards[i] = replayCard{next(), next(), next(), next()}
	}
	c.caps = next()
	c.model = make([]replayBit, next()%32)
	for i := range c.model {
		c.model[i] = replayBit{next(), next()}
	}
	c.from, c.to, c.bogus = next(), next(), next()&1 != 0
	return c
}

// bytes encodes the case for decodeReplayCase (seed corpus entries).
func (c replayCase) bytes() []byte {
	out := []byte{byte(c.inputs - 1 + 3*(c.nets-1)), byte(len(c.cards) - 1)}
	for _, d := range c.cards {
		out = append(out, d.kind, d.d, d.g, d.s)
	}
	out = append(out, c.caps, byte(len(c.model)))
	for _, m := range c.model {
		out = append(out, m.net, m.val)
	}
	bogus := byte(0)
	if c.bogus {
		bogus = 1
	}
	return append(out, c.from, c.to, bogus)
}

// pool lists the case's nodes: vdd, ground, the inputs, then the
// internal nets. The first 2+inputs entries are the rails.
func (c replayCase) pool() []string {
	p := []string{"vdd", netlist.Ground}
	for k := range c.inputs {
		p = append(p, fmt.Sprintf("in%d", k))
	}
	for k := range c.nets {
		p = append(p, fmt.Sprintf("n%d", k))
	}
	return p
}

// deck renders the case as a SPICE deck.
func (c replayCase) deck() string {
	pool := c.pool()
	rails := pool[:2+c.inputs]
	var b strings.Builder
	b.WriteString("replay fuzz\nVdd vdd 0 DC 1.2\n")
	for k := range c.inputs {
		fmt.Fprintf(&b, "Vin%d in%d 0 PWL(0 0 1n 0 1.1n 1.2)\n", k, k)
	}
	for i, d := range c.cards {
		ends := pool
		if i == 0 {
			ends = rails
		}
		dn, sn, gn := ends[int(d.d)%len(ends)], ends[int(d.s)%len(ends)], pool[int(d.g)%len(pool)]
		switch d.kind % 3 {
		case 0:
			fmt.Fprintf(&b, "M%d %s %s %s 0 nmos W=1u L=1u\n", i, dn, gn, sn)
		case 1:
			fmt.Fprintf(&b, "M%d %s %s %s vdd pmos W=2u L=1u\n", i, dn, gn, sn)
		default:
			fmt.Fprintf(&b, "R%d %s %s 1k\n", i, dn, sn)
		}
	}
	for k := range c.nets {
		if c.caps&(1<<k) != 0 {
			fmt.Fprintf(&b, "C%d n%d 0 1f\n", k, k)
		}
	}
	b.WriteString(".end\n")
	return b.String()
}

// witness renders the case's model, in case order (duplicates kept).
func (c replayCase) witness() Witness {
	names := append(c.pool(), "nx")
	w := make(Witness, len(c.model))
	for i, m := range c.model {
		w[i] = NetValue{Net: names[int(m.net)%len(names)], Value: m.val&1 != 0}
	}
	return w
}

// refDevice is one conducting branch of the reference.
type refDevice struct {
	name, a, b string
	on         bool
}

// replayRef is the brute-force switch-level replay the fuzz target
// checks Analysis.Replay against, built from the flat deck's cards
// alone: each device conducts by its gate's level, and islands are
// found by breadth-first search over the conducting devices.
type replayRef struct {
	kind   map[string]RailKind
	devs   []refDevice
	island map[string]int // channel/resistor endpoint -> island
	state  map[string]NetState
}

func newReplayRef(f *netlist.Flat, model Witness) *replayRef {
	// In these decks the one DC source is the supply, and the inputs
	// are PWL sources.
	kind := map[string]RailKind{netlist.Ground: RailLow}
	for _, v := range f.Vs {
		if v.PWL != nil {
			kind[v.P] = RailSignal
		} else {
			kind[v.P] = RailHigh
		}
	}
	level := func(n string) bool {
		switch kind[n] {
		case RailHigh:
			return true
		case RailLow:
			return false
		}
		v, _ := model.Get(n) // unassigned reads 0
		return v
	}

	ref := &replayRef{kind: kind, island: map[string]int{}, state: map[string]NetState{}}
	for _, m := range f.MOS {
		on := level(m.G)
		if m.Model == "pmos" {
			on = !on
		}
		ref.devs = append(ref.devs, refDevice{m.Name, m.D, m.S, on})
	}
	for _, r := range f.Ress {
		ref.devs = append(ref.devs, refDevice{r.Name, r.A, r.B, true})
	}

	var ends []string
	for _, d := range ref.devs {
		ends = append(ends, d.a, d.b)
	}
	drive := map[int]NetState{}
	for _, start := range ends {
		if _, seen := ref.island[start]; seen {
			continue
		}
		id := len(drive)
		drive[id] = StateFloat
		for n := range ref.search(start) {
			ref.island[n] = id
			switch kind[n] {
			case RailHigh:
				drive[id] |= StateHigh
			case RailLow:
				drive[id] |= StateLow
			case RailSignal:
				if v, _ := model.Get(n); v {
					drive[id] |= StateHigh
				} else {
					drive[id] |= StateLow
				}
			}
		}
	}
	for n, id := range ref.island {
		ref.state[n] = drive[id]
	}
	return ref
}

// hop is how a breadth-first search over the conducting devices first
// reached a node.
type hop struct{ from, dev string }

// search runs a breadth-first search from start over the conducting
// devices and returns how it reached each node it reached.
func (ref *replayRef) search(start string) map[string]hop {
	prev := map[string]hop{start: {}}
	queue := []string{start}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, d := range ref.devs {
			for _, e := range [][2]string{{d.a, d.b}, {d.b, d.a}} {
				if _, seen := prev[e[1]]; d.on && e[0] == n && !seen {
					prev[e[1]] = hop{n, d.name}
					queue = append(queue, e[1])
				}
			}
		}
	}
	return prev
}

// path returns the devices of one conducting path from x to y (nil
// when x == y), or ok=false when none exists.
func (ref *replayRef) path(x, y string) (devs []string, ok bool) {
	prev := ref.search(x)
	if _, ok := prev[y]; !ok {
		return nil, false
	}
	for n := y; n != x; n = prev[n].from {
		devs = append([]string{prev[n].dev}, devs...)
	}
	return devs, true
}

func (ref *replayRef) connected(x, y string) bool {
	ix, okx := ref.island[x]
	iy, oky := ref.island[y]
	return okx && oky && ix == iy
}

// FuzzReplay decodes the fuzz input into a small deck (vdd, ground,
// 1–3 PWL inputs, up to 8 internal nets, up to 16 NMOS, PMOS and
// resistor cards, the first a rail-to-rail bridge) and a partial model
// over its nets, and checks the switch-level replay against the
// brute-force reference: every net's State, Connected for every pair,
// CheckModel, CheckFloating, and CheckShort on each single device and
// on one conducting path.
func FuzzReplay(f *testing.F) {
	for _, c := range []replayCase{
		// An inverter on in0 with in0 left out of the model: the
		// unassigned gate reads 0, so the PMOS drives n0 high.
		{inputs: 1, nets: 1, caps: 1, cards: []replayCard{
			{0, 0, 1, 1}, // bridge vdd–ground, gate tied low
			{1, 3, 2, 0}, // pmos n0–vdd, gate in0
			{0, 3, 2, 1}, // nmos n0–ground, gate in0
		}, model: []replayBit{{3, 1}}, from: 0, to: 3},
		// A pass device joins n0 to in1, which the model leaves
		// unassigned, and a resistor bridges in0 to in1: the unassigned
		// signal rail drives low against in0=1.
		{inputs: 2, nets: 1, caps: 1, cards: []replayCard{
			{2, 2, 0, 3}, // resistor in0–in1
			{0, 4, 0, 3}, // nmos n0–in1, gate vdd
		}, model: []replayBit{{2, 1}}, from: 2, to: 4},
		// n1 is only a gate: it floats and joins nothing, whatever the
		// model says about it.
		{inputs: 1, nets: 2, cards: []replayCard{
			{1, 0, 2, 1}, // bridge pmos vdd–ground, gate in0
			{0, 3, 4, 1}, // nmos n0–ground, gate n1
		}, model: []replayBit{{4, 1}, {3, 0}, {2, 1}}, from: 3, to: 1},
		// A conducting vdd–ground path whose CheckShort also names a
		// device the deck does not have.
		{inputs: 1, nets: 1, cards: []replayCard{
			{2, 0, 0, 1}, // resistor vdd–ground
		}, from: 0, to: 1, bogus: true},
		// A net listed twice in the model: its first entry counts.
		{inputs: 1, nets: 1, caps: 1, cards: []replayCard{
			{0, 2, 0, 1}, // bridge nmos in0–ground, gate vdd
			{0, 3, 3, 2}, // nmos n0–in0, gate n0
		}, model: []replayBit{{3, 1}, {3, 0}, {2, 0}}, from: 3, to: 1},
	} {
		f.Add(c.bytes())
	}
	f.Add([]byte{})
	f.Add([]byte("switch-level replay on net indices"))

	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeReplayCase(data)
		deck := c.deck()
		nl, err := netlist.ParseString(deck)
		if err != nil {
			t.Fatalf("generated deck does not parse: %v\n%s", err, deck)
		}
		flat, err := nl.Flatten()
		if err != nil {
			t.Fatalf("flatten: %v\n%s", err, deck)
		}
		model := c.witness()
		r := Analyze(flat, Config{}).Replay(model)
		ref := newReplayRef(flat, model)
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf(format+"\nmodel %v\n%s", append(args, model, deck)...)
		}

		nets := append(flat.Nodes(), "nx")
		for _, x := range nets {
			if got, want := r.State(x), ref.state[x]; got != want {
				fail("State(%s) = %v, want %v", x, got, want)
			}
			for _, y := range nets {
				if got, want := r.Connected(x, y), ref.connected(x, y); got != want {
					fail("Connected(%s, %s) = %v, want %v", x, y, got, want)
				}
			}
			err := r.CheckFloating(ProvenFloating{FloatingOutput: FloatingOutput{Net: x}})
			if (err == nil) != (ref.state[x] == StateFloat) {
				fail("CheckFloating(%s) = %v with state %v", x, err, ref.state[x])
			}
		}

		// Outputs are the non-rail nets that gate a device or carry a
		// cap; a driven one must match the model where it assigns it.
		consistent := true
		outputs := map[string]bool{}
		for _, m := range flat.MOS {
			outputs[m.G] = true
		}
		for _, cp := range flat.Caps {
			outputs[cp.A], outputs[cp.B] = true, true
		}
		for o := range outputs {
			mv, ok := model.Get(o)
			if !ok || ref.kind[o] != RailNone {
				continue
			}
			switch ref.state[o] {
			case StateHigh:
				consistent = consistent && mv
			case StateLow:
				consistent = consistent && !mv
			}
		}
		if err := r.CheckModel(); (err == nil) != consistent {
			fail("CheckModel() = %v, want consistent=%v", err, consistent)
		}

		// A device alone is a path between its own terminals.
		for _, d := range ref.devs {
			err := r.CheckShort(ProvenShort{From: d.a, To: d.b, Devices: []string{d.name}})
			if (err == nil) != d.on {
				fail("CheckShort(%s) = %v, device conducts: %v", d.name, err, d.on)
			}
		}
		pool := c.pool()
		from, to := pool[int(c.from)%len(pool)], pool[int(c.to)%len(pool)]
		devs, joined := ref.path(from, to)
		if c.bogus {
			devs = append(devs, "mnone")
		}
		want := joined && ref.connected(from, to) && !c.bogus
		if err := r.CheckShort(ProvenShort{From: from, To: to, Devices: devs}); (err == nil) != want {
			fail("CheckShort(%s -> %s via %v) = %v, want ok=%v", from, to, devs, err, want)
		}
	})
}

// BenchmarkReplay replays one fall witness of the 8x8 multiplier's
// exclusion deck, both frames, the way fallAnalysis validates it.
func BenchmarkReplay(b *testing.B) {
	tech := mosfet.Tech07()
	c := circuits.CarrySaveMultiplier(&tech, 8, 20e-15).Circuit
	a, err := expandForExclusion(c)
	if err != nil {
		b.Fatal(err)
	}
	cc := newConeCache(a)
	var net string
	var m0, m1 Witness
	for _, g := range c.Gates {
		net = circuit.NetlistNode(g.Out.Name)
		fp := newFrameProver(cc, cc.cone([]string{net}), 2, 0)
		if res := fp.canFall(net); res.Status == sat.Sat {
			m0, m1 = fp.frameModel(&res, 0), fp.frameModel(&res, 1)
			break
		}
	}
	if m0 == nil {
		b.Fatal("no gate of the multiplier can fall")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if !replayFall(a, net, m0, m1) {
			b.Fatalf("the fall witness of %s fails replay", net)
		}
	}
}
