package sca

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mtcmos/internal/circuit"
	"mtcmos/internal/circuits"
	"mtcmos/internal/mosfet"
	"mtcmos/internal/netlist"
	"mtcmos/internal/simerr"
)

// selectCircuit builds the canonical mutually-exclusive structure: two
// AND branches behind complementary selects, merged per bit.
func selectCircuit(t *testing.T, bits int) *circuit.Circuit {
	t.Helper()
	tech := mosfet.Tech07()
	return circuits.SelectTree(&tech, bits, 20e-15)
}

func TestRefineLevelsSelectTree(t *testing.T) {
	c := selectCircuit(t, 4)
	r, err := RefineLevels(c, ExclConfig{})
	if err != nil {
		t.Fatalf("RefineLevels: %v", err)
	}
	if r.Stats.Fallback != "" {
		t.Fatalf("refinement fell back: %s", r.Stats.Fallback)
	}
	if r.WL >= r.StaticWL {
		t.Errorf("refinement did not tighten the select tree: refined %.1f, static %.1f", r.WL, r.StaticWL)
	}
	if r.Stats.Proven == 0 {
		t.Error("no exclusions proven on the select tree")
	}
	if r.Stats.ReplayFailed != 0 {
		t.Errorf("%d fall witnesses failed switch-level replay", r.Stats.ReplayFailed)
	}
	if r.Stats.ReplayChecked == 0 {
		t.Error("no fall witnesses were replay-validated")
	}
	// Every proven pair must be a cross-branch pair or involve the
	// select inverter: two gates of the same branch can co-discharge.
	branch := func(g string) string {
		switch {
		case strings.HasPrefix(g, "gga"):
			return "a"
		case strings.HasPrefix(g, "ggb"):
			return "b"
		}
		return g
	}
	for _, p := range r.Pairs {
		ba, bb := branch(p.A), branch(p.B)
		if ba == bb && (ba == "a" || ba == "b") {
			t.Errorf("same-branch pair proven exclusive: %s x %s", p.A, p.B)
		}
	}
	// Per-level invariant: Refined within [0, Static] at every level.
	for li := range r.Refined {
		if r.Refined[li] > r.StaticWidths[li] {
			t.Errorf("level %d: refined %.1f exceeds static %.1f", li+1, r.Refined[li], r.StaticWidths[li])
		}
	}
}

// TestRefineLevelsContext: a fired ExclConfig.Ctx stops the refinement
// with its classified failure instead of degrading to the static bound.
func TestRefineLevelsContext(t *testing.T) {
	c := selectCircuit(t, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if r, err := RefineLevels(c, ExclConfig{Ctx: ctx}); !errors.Is(err, simerr.ErrCancelled) {
		t.Errorf("cancelled context: (%+v, %v), want ErrCancelled", r, err)
	}
	bctx, bcancel := context.WithCancelCause(context.Background())
	bcancel(simerr.New(simerr.ErrBudget, "test", "budget spent"))
	if r, err := RefineLevels(c, ExclConfig{Ctx: bctx}); !errors.Is(err, simerr.ErrBudget) {
		t.Errorf("budget cause: (%+v, %v), want ErrBudget", r, err)
	}
}

func TestRefineLevelsWorkerInvariance(t *testing.T) {
	// The 4x4 multiplier's 40 fall gates and 153 queried pairs span
	// several chunks, which fill one shared path cache concurrently.
	tech := mosfet.Tech03()
	mult := circuits.CarrySaveMultiplier(&tech, 4, 15e-15).Circuit
	for _, c := range []*circuit.Circuit{selectCircuit(t, 6), mult} {
		var base *Refinement
		for _, workers := range []int{1, 2, 8} {
			r, err := RefineLevels(c, ExclConfig{Workers: workers})
			if err != nil {
				t.Fatalf("%s, workers=%d: %v", c.Name, workers, err)
			}
			if base == nil {
				base = r
				continue
			}
			if !reflect.DeepEqual(r.Refined, base.Refined) || !reflect.DeepEqual(r.Pairs, base.Pairs) {
				t.Errorf("%s, workers=%d: result differs from serial run", c.Name, workers)
			}
			if r.Stats != base.Stats {
				t.Errorf("%s, workers=%d: stats differ: %+v vs %+v", c.Name, workers, r.Stats, base.Stats)
			}
		}
	}
}

// TestRefineDeckWorkerInvariance: the deck refinement fans out on
// sched.Map like RefineLevels and gives the same result at any worker
// count — on mutexDeck (one chunk) and on the expanded 6-bit select
// tree, whose 666 candidate pairs span 11 chunks sharing one path
// cache.
func TestRefineDeckWorkerInvariance(t *testing.T) {
	sel := selectCircuit(t, 6)
	if err := sel.SetDomainWL(0, 10); err != nil {
		t.Fatal(err)
	}
	stim := circuit.Stimulus{Old: map[string]bool{}, New: map[string]bool{}, TEdge: 1e-9, TRise: 50e-12}
	for _, in := range sel.Inputs {
		stim.Old[in.Name], stim.New[in.Name] = false, true
	}
	nl, err := sel.Netlist(stim)
	if err != nil {
		t.Fatal(err)
	}
	selFlat, err := nl.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	for name, f := range map[string]*netlist.Flat{"mutexDeck": parseFlat(t, mutexDeck), "select6": selFlat} {
		a := Analyze(f, Config{})
		base := a.RefineDeck(ExclConfig{Workers: 1})
		if len(base) != 1 || base[0].Refined >= base[0].Sum {
			t.Fatalf("%s: serial run did not refine its one sleep device: %+v", name, base)
		}
		if base[0].Stats.ReplayFailed != 0 {
			t.Errorf("%s: %d witnesses failed replay", name, base[0].Stats.ReplayFailed)
		}
		if got := a.RefineDeck(ExclConfig{Workers: 2}); !reflect.DeepEqual(got, base) {
			t.Errorf("%s: workers=2 gives %+v, serial %+v", name, got, base)
		}
	}
}

func TestRefineLevelsPairBudget(t *testing.T) {
	c := selectCircuit(t, 6)
	full, err := RefineLevels(c, ExclConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// A pair budget of 1 must truncate, stay sound (refined within
	// [simultaneous-truth, static]), and report the truncation.
	tight, err := RefineLevels(c, ExclConfig{MaxPairs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tight.Stats.TruncatedPairs == 0 {
		t.Error("MaxPairs=1 did not report truncated pairs")
	}
	if tight.WL < full.WL {
		t.Errorf("truncated refinement %.1f is tighter than the full one %.1f — truncation must degrade, not improve", tight.WL, full.WL)
	}
	if tight.WL > tight.StaticWL {
		t.Errorf("truncated refinement %.1f exceeds the static bound %.1f", tight.WL, tight.StaticWL)
	}
}

func TestRefineLevelsNoExclusions(t *testing.T) {
	// A bare inverter chain has nothing to refine: all windows are
	// disjoint except trivially, and the refined widths must equal the
	// static ones.
	tech := mosfet.Tech07()
	c := circuits.InverterChain(&tech, 5, 10e-15)
	r, err := RefineLevels(c, ExclConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.Refined, r.StaticWidths) {
		t.Errorf("chain refined %v != static %v", r.Refined, r.StaticWidths)
	}
	if r.WL != r.StaticWL {
		t.Errorf("chain refined bound %.1f != static %.1f", r.WL, r.StaticWL)
	}
}

func TestRefineLevelsCycleError(t *testing.T) {
	tech := mosfet.Tech07()
	c := circuit.New("loop", &tech)
	c.Input("in")
	c.MustGate(circuit.Nand2, "g1", "x", 1, "in", "y")
	c.MustGate(circuit.Inv, "g2", "y", 1, "x")
	if _, err := RefineLevels(c, ExclConfig{}); err == nil {
		t.Fatal("RefineLevels accepted a combinational loop")
	}
}

// mutexDeck is the transistor-level decoded-select structure: branch A
// (output oa) discharges only while sel is low, branch B (ob) only
// while sel is high.
const mutexDeck = `decoded select branches
.subckt nand2 a b out vdd vgnd
  Mpa out a vdd vdd pmos W=2.8u L=0.7u
  Mpb out b vdd vdd pmos W=2.8u L=0.7u
  Mna out a mid 0 nmos W=2.8u L=0.7u
  Mnb mid b vgnd 0 nmos W=2.8u L=0.7u
.ends
Vdd vdd 0 DC 1.2
Vsel sel 0 PWL(0 0 1n 0 1.05n 1.2)
Va a 0 DC 1.2
Vb b 0 DC 1.2
Vslp sleepen 0 DC 1.2
Mpn ns sel vdd vdd pmos W=2.8u L=0.7u
Mnn ns sel vg 0 nmos W=1.4u L=0.7u
Xa a ns oa vdd vg nand2
Xb b sel ob vdd vg nand2
Msleep vg sleepen 0 0 nmos_hvt W=7u L=0.7u
Coa oa 0 20f
Cob ob 0 20f
.end
`

func TestRefineDeckMutexBranches(t *testing.T) {
	a := Analyze(parseFlat(t, mutexDeck), Config{})
	drs := a.RefineDeck(ExclConfig{})
	if len(drs) != 1 {
		t.Fatalf("RefineDeck found %d sleep devices, want 1: %+v", len(drs), drs)
	}
	d := drs[0]
	if d.Device != "msleep" || d.Rail != "vg" {
		t.Errorf("device/rail = %s/%s, want msleep/vg", d.Device, d.Rail)
	}
	// Outputs behind the rail: ns (W/L 2), oa and ob (stack bottleneck
	// W/L 4 each). Naive sum 10; oa x ob and ns x oa are exclusive, so
	// grouping {oa, ob} + {ns} refines to 4 + 2 = 6.
	if d.Sum != 10 {
		t.Errorf("naive discharge sum = %.1f, want 10", d.Sum)
	}
	if d.Refined != 6 {
		t.Errorf("refined discharge bound = %.1f, want 6 (pairs %v)", d.Refined, d.Pairs)
	}
	found := false
	for _, p := range d.Pairs {
		if p == "oa × ob" {
			found = true
		}
	}
	if !found {
		t.Errorf("cross-branch exclusion oa × ob not proven: %v", d.Pairs)
	}
	if d.Stats.ReplayFailed != 0 {
		t.Errorf("%d witnesses failed replay", d.Stats.ReplayFailed)
	}
}

// TestDeckLadderExamples asserts the deck-level ladder Refined ≤ Sum
// on every example deck that carries a sleep device.
func TestDeckLadderExamples(t *testing.T) {
	decks, err := filepath.Glob("../../examples/decks/*.sp")
	if err != nil || len(decks) == 0 {
		t.Fatalf("no example decks found: %v", err)
	}
	refined := 0
	for _, path := range decks {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		nl, err := netlist.Parse(strings.NewReader(string(raw)))
		if err != nil {
			t.Fatalf("%s: parse: %v", path, err)
		}
		f, err := nl.Flatten()
		if err != nil {
			t.Fatalf("%s: flatten: %v", path, err)
		}
		for _, d := range Analyze(f, Config{}).RefineDeck(ExclConfig{}) {
			if d.Refined > d.Sum {
				t.Errorf("%s: device %s refined %.1f exceeds sum %.1f", path, d.Device, d.Refined, d.Sum)
			}
			if d.Refined < d.Sum {
				refined++
			}
			if d.Stats.ReplayFailed != 0 {
				t.Errorf("%s: device %s: %d witnesses failed replay", path, d.Device, d.Stats.ReplayFailed)
			}
		}
	}
	if refined == 0 {
		t.Error("no example deck was tightened by the exclusion refinement")
	}
}
