package experiments

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"mtcmos/internal/circuits"
	"mtcmos/internal/simerr"
)

// fastCfg keeps the smoke tests quick: switch-level only, 4x4
// multiplier, 2-bit adder where legal.
func fastCfg() Config {
	return Config{Fast: true, MultiplierBits: 4}
}

func TestRegistryIDsUniqueAndFindable(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Registry() {
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %q", e.ID)
		}
		seen[e.ID] = true
		got, err := Find(e.ID)
		if err != nil || got.ID != e.ID {
			t.Errorf("Find(%q) = %v, %v", e.ID, got.ID, err)
		}
	}
	if _, err := Find("nosuch"); err == nil {
		t.Error("unknown id must error")
	}
}

func TestFig5Shapes(t *testing.T) {
	out, err := Fig5(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Series) != 2 {
		t.Fatalf("series count = %d", len(out.Series))
	}
	vout := out.Series[0]
	// The smallest device (first column, W/L=2) must end lower-slower:
	// at mid-transition its output is higher (slower fall) than the
	// biggest device's.
	small, _ := vout.Col("W/L=2")
	big, _ := vout.Col("W/L=20")
	midIdx := len(vout.X) / 3
	if small[midIdx] <= big[midIdx] {
		t.Errorf("W/L=2 output should lag W/L=20 at t=%.2gns: %.3g vs %.3g",
			vout.X[midIdx], small[midIdx], big[midIdx])
	}
	// Ground bounce: peak of W/L=2 exceeds peak of W/L=20.
	vg := out.Series[1]
	s2, _ := vg.Col("W/L=2")
	s20, _ := vg.Col("W/L=20")
	if maxOf(s2) <= maxOf(s20) {
		t.Errorf("bounce ordering wrong: %.3g vs %.3g", maxOf(s2), maxOf(s20))
	}
}

func maxOf(v []float64) float64 {
	m := v[0]
	for _, x := range v {
		if x > m {
			m = x
		}
	}
	return m
}

func TestFig10MonotoneShape(t *testing.T) {
	out, err := Fig10(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	s := out.Series[0]
	col, _ := s.Col("vbs_ns")
	for i := 1; i < len(col); i++ {
		if col[i] >= col[i-1] {
			t.Errorf("delay must fall as W/L grows: %v", col)
			break
		}
	}
}

func TestFig11Runs(t *testing.T) {
	out, err := Fig11(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	s := out.Series[0]
	col, _ := s.Col("vbs_Vx")
	if maxOf(col) <= 0.01 {
		t.Error("no visible bounce in Fig11 series")
	}
	if len(out.Notes) < 2 {
		t.Error("missing notes")
	}
}

func TestFig13Shape(t *testing.T) {
	cfg := fastCfg()
	out, err := Fig13(cfg)
	if err != nil {
		t.Fatal(err)
	}
	col, _ := out.Series[0].Col("vbs_ns")
	if col[0] <= col[len(col)-1] {
		t.Errorf("smallest W/L must be slowest: %v", col)
	}
}

func TestFig14ShapeSortedTail(t *testing.T) {
	out, err := Fig14(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	s := out.Series[0]
	col, _ := s.Col("vbs_deg_pct")
	if len(col) < 10 {
		t.Fatalf("too few vectors: %d", len(col))
	}
	// Sorted descending; head must dominate tail.
	for i := 1; i < len(col); i++ {
		if col[i] > col[i-1]+1e-9 {
			t.Errorf("not sorted at %d: %v", i, col[i-1:i+1])
		}
	}
	if col[0] < col[len(col)-1]+1 {
		t.Errorf("expected a visible spread, head=%.2f%% tail=%.2f%%", col[0], col[len(col)-1])
	}
}

func TestSpeedupFast(t *testing.T) {
	cfg := fastCfg()
	cfg.AdderBits = 2 // 256 vectors: quick
	out, err := Speedup(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Tables) != 1 || len(out.Tables[0].Rows) < 1 {
		t.Fatal("missing runtime table")
	}
}

func TestTable1Trap(t *testing.T) {
	out, err := Table1(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Tables) != 2 {
		t.Fatalf("table count = %d", len(out.Tables))
	}
	// The trap row exists and the sizing table orders A >= B.
	t2 := out.Tables[1]
	if len(t2.Rows) != 3 {
		t.Fatalf("sizing rows = %d", len(t2.Rows))
	}
}

func TestFig7VectorOrdering(t *testing.T) {
	out, err := Fig7(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	s := out.Series[0]
	degA, _ := s.Col("A_deg_pct")
	degB, _ := s.Col("B_deg_pct")
	// Paper's core claim: vector A degrades more than B at small W/L.
	if degA[0] <= degB[0] {
		t.Errorf("vector A must degrade more at W/L=%g: A=%.2f%% B=%.2f%%", s.X[0], degA[0], degB[0])
	}
	// Both shrink as W/L grows.
	last := len(degA) - 1
	if degA[last] >= degA[0] || degB[last] > degB[0]+1e-9 {
		t.Errorf("degradation must shrink with W/L: A %v B %v", degA, degB)
	}
}

func TestPeakConservative(t *testing.T) {
	out, err := Peak(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Tables[0].Rows) != 3 {
		t.Fatal("peak table must have 3 rows")
	}
}

func TestWidthsTable(t *testing.T) {
	out, err := Widths(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Tables[0].Rows) != 3 {
		t.Fatalf("widths rows = %d", len(out.Tables[0].Rows))
	}
}

func TestAblationCxShape(t *testing.T) {
	out, err := AblationCx(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	s := out.Series[0]
	peaks, _ := s.Col("peakVx_mV")
	if peaks[len(peaks)-1] >= peaks[0] {
		t.Errorf("largest Cx must filter the bounce: %v", peaks)
	}
	rec, _ := s.Col("recovery_ns")
	if rec[len(rec)-1] <= rec[0] {
		t.Errorf("recovery must grow with Cx: %v", rec)
	}
}

func TestAblationReverse(t *testing.T) {
	out, err := AblationReverse(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Tables[0].Rows) != 3 {
		t.Fatal("reverse table rows")
	}
}

func TestAblationBodyFast(t *testing.T) {
	out, err := AblationBody(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	s := out.Series[0]
	body, _ := s.Col("vbs_body_ns")
	nobody, _ := s.Col("vbs_nobody_ns")
	// Body effect adds delay, most at small W/L (first entry).
	if body[0] <= nobody[0] {
		t.Errorf("body effect must slow the model: %v vs %v", body, nobody)
	}
}

func TestVectorConstantsMatchPaper(t *testing.T) {
	m := circuits.PaperMultiplier(8)
	if a, want := m.VectorA(), m.Pair(0, 0, 0xFF, 0x81); !reflect.DeepEqual(a.Old, want.Old) || !reflect.DeepEqual(a.New, want.New) {
		t.Errorf("vector A = %v -> %v, want (0,0)->(FF,81)", a.Old, a.New)
	}
	if b, want := m.VectorB(), m.Pair(0x7F, 0x81, 0xFF, 0x81); !reflect.DeepEqual(b.Old, want.Old) || !reflect.DeepEqual(b.New, want.New) {
		t.Errorf("vector B = %v -> %v, want (7F,81)->(FF,81)", b.Old, b.New)
	}
}

func TestWorstVectorSearch(t *testing.T) {
	m := circuits.PaperMultiplier(4)
	best, err := WorstVectorSearch(m, 20, 2, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if best.Metric <= 0 {
		t.Errorf("greedy search found no degrading vector: %+v", best)
	}
	// Fanning the restarts out must not change the winner.
	par, err := WorstVectorSearch(m, 20, 2, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if par != best {
		t.Errorf("workers=4 diverged from serial: %+v vs %+v", par, best)
	}
	t.Logf("worst found: old=%04b/%04b new=%04b/%04b deg=%.1f%%",
		best.OldV&0xF, best.OldV>>4, best.NewV&0xF, best.NewV>>4, best.Metric*100)
}

func TestLintAuditClean(t *testing.T) {
	out, err := LintAudit(fastCfg())
	if err != nil {
		t.Fatalf("benchmark circuits must lint clean: %v", err)
	}
	if len(out.Tables) != 1 || len(out.Tables[0].Rows) != 3 {
		t.Fatalf("audit should cover the three benchmark circuits: %+v", out.Tables)
	}
	for _, row := range out.Tables[0].Rows {
		if row[3] != "0" {
			t.Errorf("circuit %s has %s lint errors", row[0], row[3])
		}
	}
}

// outputKey renders every table and series of an Output to one string,
// so worker-count comparisons are byte-exact.
func outputKey(o *Output) string {
	s := o.ID + "\n"
	for _, tb := range o.Tables {
		s += tb.String() + "\n"
	}
	for _, sr := range o.Series {
		s += sr.String() + "\n"
	}
	return s
}

// TestFig7WorkerCountInvariant: the Fig. 7 sweep must render the exact
// same series at any worker count (-j is a pure speed knob).
func TestFig7WorkerCountInvariant(t *testing.T) {
	c1 := fastCfg()
	c1.Workers = 1
	o1, err := Fig7(c1)
	if err != nil {
		t.Fatal(err)
	}
	c8 := fastCfg()
	c8.Workers = 8
	o8, err := Fig7(c8)
	if err != nil {
		t.Fatal(err)
	}
	if outputKey(o1) != outputKey(o8) {
		t.Errorf("fig7 diverged between -j 1 and -j 8:\n%s\nvs\n%s", outputKey(o1), outputKey(o8))
	}
}

// TestFig14WorkerCountInvariant: same for the per-vector spread sweep,
// whose candidate collection crosses the fan-out boundary.
func TestFig14WorkerCountInvariant(t *testing.T) {
	c1 := fastCfg()
	c1.AdderBits = 2
	c1.Workers = 1
	o1, err := Fig14(c1)
	if err != nil {
		t.Fatal(err)
	}
	c8 := c1
	c8.Workers = 8
	o8, err := Fig14(c8)
	if err != nil {
		t.Fatal(err)
	}
	if outputKey(o1) != outputKey(o8) {
		t.Errorf("fig14 diverged between -j 1 and -j 8:\n%s\nvs\n%s", outputKey(o1), outputKey(o8))
	}
}

func TestRefineLadderAndTightening(t *testing.T) {
	out, err := Refine(Config{Fast: true, MultiplierBits: 4, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Tables) != 2 {
		t.Fatalf("refine produced %d tables, want 2", len(out.Tables))
	}
	// The experiment itself enforces the ladder, replay validation, and
	// the two-benchmark tightening criterion; here we just confirm the
	// select tree row actually shows a strict refinement.
	var selRow []string
	for _, row := range out.Tables[0].Rows {
		if len(row) > 0 && row[0] == "8-bit select tree" {
			selRow = row
		}
	}
	if selRow == nil {
		t.Fatalf("no select-tree row in %v", out.Tables[0].Rows)
	}
	if got := selRow[len(selRow)-1]; got != "1.27x" {
		t.Errorf("select tree refinement ratio changed: %q (row %v)", got, selRow)
	}
}

func TestRefineWorkerCountInvariant(t *testing.T) {
	render := func(workers int) string {
		out, err := Refine(Config{Fast: true, MultiplierBits: 4, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, tb := range out.Tables {
			fmt.Fprintf(&b, "%s\n", tb.Title)
			for _, row := range tb.Rows {
				fmt.Fprintf(&b, "%s\n", strings.Join(row, "\t"))
			}
		}
		return b.String()
	}
	if a, b := render(1), render(8); a != b {
		t.Errorf("refine output differs between -j 1 and -j 8:\n%s\n---\n%s", a, b)
	}
}

// TestExperimentsHonourContext: every simulation, proof and DC solve an
// experiment runs carries cfg.Ctx, so a cancelled run stops with
// ErrCancelled instead of finishing.
func TestExperimentsHonourContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, run := range map[string]func(Config) (*Output, error){
		"widths": Widths, "hier": Hier, "sca": SCA, "refine": Refine, "standby": StandbyExp,
	} {
		cfg := fastCfg()
		cfg.Ctx = ctx
		if _, err := run(cfg); !errors.Is(err, simerr.ErrCancelled) {
			t.Errorf("%s under a cancelled context: err = %v, want ErrCancelled", name, err)
		}
	}
}
