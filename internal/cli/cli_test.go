package cli

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"mtcmos/internal/netlist"
)

func TestExpListsExperiments(t *testing.T) {
	var buf bytes.Buffer
	if err := Exp(nil, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, id := range []string{"fig5", "fig7", "table1", "speedup", "hier", "standby"} {
		if !strings.Contains(out, id) {
			t.Errorf("listing missing %q:\n%s", id, out)
		}
	}
}

func TestExpRunsOneExperimentFast(t *testing.T) {
	var buf bytes.Buffer
	err := Exp([]string{"-e", "widths", "-fast", "-mult", "4"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "==== widths") || !strings.Contains(out, "sum-of-widths") {
		t.Errorf("unexpected output:\n%s", out)
	}
}

// TestExpAdderTitlesFollowWidth: the adder experiments name the width
// and the vectors they ran, not the paper's 3-bit ones.
func TestExpAdderTitlesFollowWidth(t *testing.T) {
	var buf bytes.Buffer
	if err := Exp([]string{"-e", "reverse,fig13,fig14", "-fast", "-adder", "2"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Reverse conduction on the 2-bit adder (worst vector (0,0)->(3,1))",
		"Fig. 13: 2-bit adder delay vs W/L",
		"vector (0001)->(1001)",
		"Fig. 14: % degradation per vector, 2-bit adder",
		"S1-toggling vectors",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q", want)
		}
	}
	if strings.Contains(out, "3-bit") {
		t.Errorf("a 2-bit run still says 3-bit:\n%s", out)
	}
}

func TestExpCSVAndPlot(t *testing.T) {
	var buf bytes.Buffer
	if err := Exp([]string{"-e", "cx", "-fast", "-csv"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Cx_pF,peakVx_mV") {
		t.Errorf("CSV header missing:\n%s", buf.String())
	}
	buf.Reset()
	if err := Exp([]string{"-e", "cx", "-fast", "-plot"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "+---") {
		t.Error("plot frame missing")
	}
}

func TestExpUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := Exp([]string{"-e", "nosuch"}, &buf); err == nil {
		t.Error("unknown experiment must return an error")
	}
}

func TestSimTreeVBS(t *testing.T) {
	var buf bytes.Buffer
	err := Sim([]string{"-circuit", "tree", "-wl", "8"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "worst delay") || !strings.Contains(out, "virtual ground peak") {
		t.Errorf("missing summary:\n%s", out)
	}
}

func TestSimAdderWithVectors(t *testing.T) {
	var buf bytes.Buffer
	err := Sim([]string{"-circuit", "adder", "-wl", "10", "-old", "0,0", "-new", "7,5"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "delay s0") {
		t.Errorf("missing per-output delays:\n%s", buf.String())
	}
}

func TestSimMultHexVectors(t *testing.T) {
	var buf bytes.Buffer
	err := Sim([]string{"-circuit", "mult", "-bits", "4", "-wl", "40", "-old", "0,0", "-new", "f,9"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "worst delay") {
		t.Errorf("missing delay:\n%s", buf.String())
	}
}

func TestSimSpiceEngine(t *testing.T) {
	var buf bytes.Buffer
	err := Sim([]string{"-circuit", "chain", "-bits", "2", "-wl", "10",
		"-engine", "spice", "-tstop", "6n", "-trace", "out"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "steps:") || !strings.Contains(out, "trace out") {
		t.Errorf("missing engine stats:\n%s", out)
	}
}

func TestSimTraceAndPlot(t *testing.T) {
	var buf bytes.Buffer
	err := Sim([]string{"-circuit", "tree", "-wl", "5", "-trace", "s3_0", "-plot"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "wave s3_0") {
		t.Errorf("missing traced wave:\n%s", buf.String())
	}
}

func TestSimErrors(t *testing.T) {
	cases := [][]string{
		{"-circuit", "nosuch"},
		{"-circuit", "adder", "-old", "zz,0"},
		{"-circuit", "adder", "-old", "1"},
		{"-engine", "warp"},
	}
	for _, args := range cases {
		var buf bytes.Buffer
		if err := Sim(args, &buf); err == nil {
			t.Errorf("args %v must fail", args)
		}
	}
}

func TestSimNetlistDeck(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "rc.sp")
	deck := "rc deck\nV1 in 0 PWL(0 0 1n 0 1.1n 1)\nR1 in a 1k\nC1 a 0 0.2p\n"
	if err := os.WriteFile(path, []byte(deck), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err := Sim([]string{"-netlist", path, "-tstop", "4n", "-trace", "a"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "node a") {
		t.Errorf("missing node summary:\n%s", buf.String())
	}
	if err := Sim([]string{"-netlist", filepath.Join(dir, "missing.sp")}, &buf); err == nil {
		t.Error("missing deck must fail")
	}
}

func TestSizeTree(t *testing.T) {
	var buf bytes.Buffer
	err := Size([]string{"-circuit", "tree", "-target", "10"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"sum-of-widths", "peak-current", "delay-target", "overdesign", "break-even"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

func TestSizeAdderNoPower(t *testing.T) {
	var buf bytes.Buffer
	err := Size([]string{"-circuit", "adder", "-target", "15", "-vectors", "2", "-power=false"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "break-even") {
		t.Error("-power=false must suppress the power summary")
	}
}

func TestSizeUnknownCircuit(t *testing.T) {
	var buf bytes.Buffer
	if err := Size([]string{"-circuit", "warp"}, &buf); err == nil {
		t.Error("unknown circuit must fail")
	}
}

// TestParseValueSuffixes: -wl and -tstop parse with the deck parser's
// netlist.ParseValue, so "10ns" means what it means in a deck.
func TestParseValueSuffixes(t *testing.T) {
	cases := map[string]float64{
		"20n": 20e-9, "5p": 5e-12, "3u": 3e-6, "1.5": 1.5, "2m": 2e-3, "7f": 7e-15, "10ns": 10e-9,
	}
	for in, want := range cases {
		got, err := netlist.ParseValue(in)
		if err != nil || got != want {
			t.Errorf("ParseValue(%q) = %g, %v", in, got, err)
		}
	}
	if _, err := netlist.ParseValue("zz"); err == nil {
		t.Error("bad value must fail")
	}
	var buf bytes.Buffer
	if err := Sim([]string{"-circuit", "tree", "-wl", "8", "-engine", "spice", "-tstop", "10ns"}, &buf); err != nil {
		t.Fatalf("-tstop 10ns: %v", err)
	}
}

func TestSimCSVOut(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	err := Sim([]string{"-circuit", "tree", "-wl", "8", "-trace", "s3_0", "-csvout", dir}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"s3_0.csv", "vgnd.csv"} {
		data, err := os.ReadFile(filepath.Join(dir, f))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if !strings.HasPrefix(string(data), "t,") {
			t.Errorf("%s: bad header %q", f, string(data[:10]))
		}
	}
}

func TestSimWLSweep(t *testing.T) {
	run := func(jobs string) string {
		var buf bytes.Buffer
		err := Sim([]string{"-circuit", "tree", "-wl", "0,2,8,20", "-j", jobs}, &buf)
		if err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	serial := run("1")
	if !strings.Contains(serial, "sleep-size sweep") || !strings.Contains(serial, "20") {
		t.Errorf("missing sweep table:\n%s", serial)
	}
	// -j must not change the printed table.
	if par := run("8"); par != serial {
		t.Errorf("-j 8 output diverged from -j 1:\n%s\nvs\n%s", par, serial)
	}
	// Sweeps are switch-level only.
	var buf bytes.Buffer
	if err := Sim([]string{"-circuit", "tree", "-wl", "2,8", "-engine", "spice"}, &buf); err == nil {
		t.Error("spice sweep must be rejected")
	}
}

// TestSimWLSweepLintsEveryEntry: a negative W/L anywhere in a -wl
// sweep is refused by MT007 as it is on its own, naming the entry;
// -nolint still runs the sweep.
func TestSimWLSweepLintsEveryEntry(t *testing.T) {
	var buf bytes.Buffer
	err := Sim([]string{"-circuit", "tree", "-wl", "0,5,-1"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "MT007") || !strings.Contains(err.Error(), "W/L -1") {
		t.Fatalf("sweep with W/L -1: err = %v, want an MT007 finding naming -1\n%s", err, buf.String())
	}
	buf.Reset()
	if err := Sim([]string{"-circuit", "tree", "-wl", "0,5,-1", "-nolint"}, &buf); err != nil {
		t.Fatalf("-nolint sweep: %v", err)
	}
	if !strings.Contains(buf.String(), "sleep-size sweep") {
		t.Errorf("-nolint sweep printed no table:\n%s", buf.String())
	}
}

func TestExpWorkersFlag(t *testing.T) {
	run := func(jobs string) string {
		var buf bytes.Buffer
		if err := Exp([]string{"-e", "fig7", "-fast", "-mult", "4", "-j", jobs}, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if run("1") != run("8") {
		t.Error("mtexp -j changed the rendered experiment output")
	}
}

// TestVersionFlagAllTools: every tool prints its build identity and
// exits cleanly.
func TestVersionFlagAllTools(t *testing.T) {
	for name, run := range map[string]func([]string, *bytes.Buffer) error{
		"mtexp":  func(a []string, b *bytes.Buffer) error { return Exp(a, b) },
		"mtsim":  func(a []string, b *bytes.Buffer) error { return Sim(a, b) },
		"mtsize": func(a []string, b *bytes.Buffer) error { return Size(a, b) },
		"mtlint": func(a []string, b *bytes.Buffer) error { return Lint(a, b) },
	} {
		var buf bytes.Buffer
		if err := run([]string{"-version"}, &buf); err != nil {
			t.Fatalf("%s -version: %v", name, err)
		}
		if !strings.Contains(buf.String(), name+" ") || !strings.Contains(buf.String(), "rev ") {
			t.Fatalf("%s -version output %q missing tool name or revision", name, buf.String())
		}
	}
}

// TestSimNetlistSortedNodes: deck nodes print sorted by name, so two
// runs of one deck print the same text.
func TestSimNetlistSortedNodes(t *testing.T) {
	deck := filepath.Join("..", "..", "examples", "decks", "mtcmos_inverter.sp")
	var first string
	for run := 0; run < 3; run++ {
		var buf bytes.Buffer
		if err := Sim([]string{"-netlist", deck, "-tstop", "2n"}, &buf); err != nil {
			t.Fatal(err)
		}
		var nodes []string
		for _, line := range strings.Split(buf.String(), "\n") {
			if f := strings.Fields(line); len(f) > 1 && f[0] == "node" {
				nodes = append(nodes, f[1])
			}
		}
		if len(nodes) < 2 || !sort.StringsAreSorted(nodes) {
			t.Fatalf("nodes not sorted: %v", nodes)
		}
		if run == 0 {
			first = buf.String()
		} else if buf.String() != first {
			t.Fatalf("run %d printed differently:\n%s\nvs\n%s", run, buf.String(), first)
		}
	}
}
