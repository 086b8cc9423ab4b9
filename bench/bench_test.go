package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"mtcmos/internal/circuit"
	"mtcmos/internal/circuits"
	"mtcmos/internal/mosfet"
)

// The benchmark times set-up in fresh copies of its own binary; under
// go test that binary is the test binary.
func TestMain(m *testing.M) {
	if os.Getenv(setupEnv) != "" {
		os.Exit(run(nil, os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

type specFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) specFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s specFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return s
}

// TestSpecMatchesCode keeps BENCHMARK.json and the metric and workload
// tables the benchmark prints from in step.
func TestSpecMatchesCode(t *testing.T) {
	s := readSpec(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	var wl []string
	for _, w := range s.Workloads {
		check(w.Name)
		wl = append(wl, w.Name)
	}
	var code []string
	for _, w := range workloads {
		code = append(code, w.name)
	}
	if !reflect.DeepEqual(wl, code) {
		t.Errorf("BENCHMARK.json workloads %v, code %v", wl, code)
	}
	var e2e, layer []metricDef
	for _, m := range s.EndToEnd {
		check(m.Name)
		e2e = append(e2e, metricDef{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bound %v, better %q", m.Name, m.Bound, m.Better)
		}
	}
	for _, m := range s.PerLayer {
		check(m.Name)
		layer = append(layer, metricDef{m.Name, m.Unit})
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, code %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layer, perLayer()) {
		t.Errorf("BENCHMARK.json per_layer %v, code %v", layer, perLayer())
	}
}

// reportLine runs report and decodes the final JSON line.
func reportLine(t *testing.T, res *result) (map[string]metricValue, string) {
	t.Helper()
	var out bytes.Buffer
	if err := report(res, "", "", &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last struct {
		Correct           *bool
		Attempted, Failed *int
		Metrics           map[string]metricValue
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("result line %q: %v", lines[len(lines)-1], err)
	}
	if last.Correct == nil || last.Attempted == nil || last.Failed == nil || *last.Attempted < 1 {
		t.Fatalf("result line lacks correct/attempted/failed: %q", lines[len(lines)-1])
	}
	return last.Metrics, out.String()
}

// TestWorkloads runs every workload at test scale, untraced and
// traced: both passes print every BENCHMARK.json metric with its unit,
// no op fails, and the traced pass gives each op the same results and
// check outcome as the untraced one.
func TestWorkloads(t *testing.T) {
	s := readSpec(t)
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			cfg := runConfig{seed: 7, small: true}
			plain, err := runMeasured(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.trace = true
			traced, err := runMeasured(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if plain.Failed != 0 || traced.Failed != 0 {
				t.Fatalf("failed ops: %v %v", plain.Failures, traced.Failures)
			}
			if !reflect.DeepEqual(plain.digests, traced.digests) {
				t.Errorf("traced results differ:\n untraced %q\n traced   %q", plain.digests, traced.digests)
			}

			got, _ := reportLine(t, plain)
			if len(got) != len(s.EndToEnd) {
				t.Errorf("untraced pass reports %d metrics, BENCHMARK.json has %d", len(got), len(s.EndToEnd))
			}
			for _, m := range s.EndToEnd {
				g, ok := got[m.Name]
				if !ok || g.Unit != m.Unit || !(g.Value > 0) || math.IsInf(g.Value, 0) {
					t.Errorf("end-to-end %s: got %+v (present %v), want unit %s and a positive value", m.Name, g, ok, m.Unit)
				}
			}
			got, _ = reportLine(t, traced)
			if len(got) != len(s.PerLayer) {
				t.Errorf("traced pass reports %d metrics, BENCHMARK.json has %d", len(got), len(s.PerLayer))
			}
			for _, m := range s.PerLayer {
				if g, ok := got[m.Name]; !ok || g.Unit != m.Unit {
					t.Errorf("per-layer %s: got %+v (present %v), want unit %s", m.Name, g, ok, m.Unit)
				}
			}
		})
	}
}

// TestKnownFailuresCountAsFailedOps: the seed commit's two failures are
// reported as failed, named ops of a run that itself succeeds.
func TestKnownFailuresCountAsFailedOps(t *testing.T) {
	t.Parallel()
	res, err := runWorkload(knownFailures, runConfig{seed: 1, small: true})
	if err != nil {
		t.Fatalf("the run itself failed: %v", err)
	}
	if res.Attempted != 2 || res.Failed != 2 || res.Correct {
		t.Fatalf("attempted %d, failed %d, correct %v; want 2, 2, false", res.Attempted, res.Failed, res.Correct)
	}
	_, out := reportLine(t, res)
	for _, want := range []string{"size mult4", "recovery ladder exhausted", "select6", "simulated 98, refined 96"} {
		if !strings.Contains(out, want) {
			t.Errorf("output does not name %q:\n%s", want, out)
		}
	}
}

// TestTracedSpiceRunMatchesSpiceRun: the traced decomposition of
// spice.Run returns the same steps, device evaluations and delays.
func TestTracedSpiceRunMatchesSpiceRun(t *testing.T) {
	t7, t3 := mosfet.Tech07(), mosfet.Tech03()
	ad := circuits.RippleCarryAdder(&t7, 3, 20e-15)
	m := circuits.CarrySaveMultiplier(&t3, 4, 15e-15)
	newAdder := func() *circuit.Circuit { return circuits.RippleCarryAdder(&t7, 3, 20e-15).Circuit }
	newMult := func() *circuit.Circuit { return circuits.CarrySaveMultiplier(&t3, 4, 15e-15).Circuit }
	cases := []struct {
		name  string
		build func() *circuit.Circuit
		wl    float64
		st    circuit.Stimulus
		outs  []string
	}{
		{"adder 0+1->6+5", newAdder, 10, stimulus(ad.Inputs(0, 1, false), ad.Inputs(6, 5, false)), outputNames(ad.Circuit)},
		{"adder 0+0->7+1", newAdder, 10, stimulus(ad.Inputs(0, 0, false), ad.Inputs(7, 1, false)), outputNames(ad.Circuit)},
		{"adder 3+4->4+4", newAdder, 0, stimulus(ad.Inputs(3, 4, false), ad.Inputs(4, 4, false)), outputNames(ad.Circuit)},
		{"mult4 vector A", newMult, 0, stimulus(m.Inputs(0, 0), m.Inputs(15, 9)), m.ProductNets},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			var steps, evals [2]int
			var delay [2]float64
			var errs [2]error
			var wg sync.WaitGroup
			for k, tr := range []*tracer{nil, newTracer()} {
				wg.Add(1)
				go func(k int, tr *tracer) {
					defer wg.Done()
					x := &opCtx{}
					if tr != nil {
						x.trace = &opTrace{tr: tr, op: 1, root: tr.nextID.Add(1)}
					}
					c := tc.build()
					c.SleepWL = tc.wl
					rr, err := spiceRun(x, c, tc.st)
					if err == nil {
						steps[k], evals[k] = rr.Steps, rr.Evals
						delay[k], err = checkTransient(c, rr, tc.st, tc.outs)
					}
					errs[k] = err
				}(k, tr)
			}
			wg.Wait()
			if errs[0] != nil || errs[1] != nil {
				t.Fatalf("spice.Run: %v; traced: %v", errs[0], errs[1])
			}
			if steps[0] != steps[1] || evals[0] != evals[1] || delay[0] != delay[1] {
				t.Errorf("spice.Run: %d steps, %d evals, delay %g; traced: %d steps, %d evals, delay %g",
					steps[0], evals[0], delay[0], steps[1], evals[1], delay[1])
			}
		})
	}
}

// TestNoRetiringAPI keeps the benchmark off the API the roadmap's
// refactors delete or fold (the shard stack, the solver switch, the
// stats structs), and on the layers it is meant to drive, so those
// refactors can land without editing it.
func TestNoRetiringAPI(t *testing.T) {
	allowed := map[string]bool{"mtcmos": true}
	for _, p := range []string{"circuit", "circuits", "core", "spice", "mosfet", "netlist", "sizing", "sca", "sched"} {
		allowed["mtcmos/internal/"+p] = true
	}
	banned := map[string]bool{"Solver": true, "StandbyWith": true, "Sweeps": true, "RecoveryStats": true,
		"OPStats": true, "ExclusionStats": true, "ProofStats": true}
	files, err := filepath.Glob("*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no Go files: %v", err)
	}
	fset := token.NewFileSet()
	for _, f := range files {
		file, err := parser.ParseFile(fset, f, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, im := range file.Imports {
			path, _ := strconv.Unquote(im.Path.Value)
			if (path == "mtcmos" || strings.HasPrefix(path, "mtcmos/")) && !allowed[path] {
				t.Errorf("%s imports %s", fset.Position(im.Pos()), path)
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && banned[id.Name] {
				t.Errorf("%s uses %s", fset.Position(id.Pos()), id.Name)
			}
			return true
		})
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q := quartiles(xs); q != [3]float64{2.75, 5.5, 8.25} {
		t.Errorf("quartiles = %v", q)
	}
}

func TestCompareVerdicts(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{60, 140, 100, 80, 120, 70, 130, 90, 110, 100}
	for _, tc := range []struct {
		name  string
		a, b  []float64
		lower bool
		want  string
	}{
		{"faster", base, scale(0.8), true, "better"},
		{"same", base, base, true, "no worse"},
		{"slower", base, scale(1.2), true, "worse"},
		{"lower throughput", base, scale(0.8), false, "worse"},
		{"noisy parent", noisy, base, true, "unresolved"},
	} {
		if got := judge(tc.a, tc.b, 0.1, tc.lower).verdict; !strings.HasPrefix(got, tc.want) {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestCompareReadsRecords runs -out records through -compare. Runs of
// one seed that fit different numbers of rounds repeat their counts
// per round.
func TestCompareReadsRecords(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	for i, dir := range []string{dirA, dirA, dirB, dirB} {
		rounds := 1 + i/2
		res := &result{Workload: "paper", Seed: int64(i % 2), Rounds: rounds, Attempted: 20 * rounds,
			EndToEnd: map[string]float64{}, Layer: map[string]float64{"core.events": 5}}
		for _, m := range endToEnd {
			res.EndToEnd[m.name] = 1 + float64(i)/100
		}
		if err := writeRecord(res, dir); err != nil {
			t.Fatal(err)
		}
	}
	var out bytes.Buffer
	if err := compareDirs(dirA, dirB, &out); err != nil {
		t.Fatal(err)
	}
	for _, m := range endToEnd {
		if !strings.Contains(out.String(), fmt.Sprintf("paper            %-12s", m.name)) {
			t.Errorf("no row for %s:\n%s", m.name, out.String())
		}
	}
	if !strings.Contains(out.String(), "identical per seed") {
		t.Errorf("counts not reported identical:\n%s", out.String())
	}
}
