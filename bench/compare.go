package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchmarkSpec is the part of BENCHMARK.json -compare judges by.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// loadSpec reads BENCHMARK.json from the repository root: the working
// directory or its parent (bench/).
func loadSpec() (*benchmarkSpec, error) {
	var lastErr error
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		data, err := os.ReadFile(p)
		if err != nil {
			lastErr = err
			continue
		}
		var s benchmarkSpec
		if err := json.Unmarshal(data, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &s, nil
	}
	return nil, lastErr
}

func readRecords(dir string) ([]result, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	var recs []result
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		recs = append(recs, r)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("%s: no result records", dir)
	}
	return recs, nil
}

// compareDirs compares the untraced runs of A (the parent) with those
// of B (the change), workload by workload, by these rules and the
// bounds in BENCHMARK.json:
//
//   - unresolved: A's own quartile spread is wider than the bound, and
//     not every run of B is better than every run of A;
//   - better: B wins at least 9/10 of the pairs (run i of A against
//     run i of B, ties counting for neither) and the medians differ,
//     in B's favour, by more than A's quartile spread;
//   - worse: B's median is worse than A's by more than the bound;
//   - no worse: otherwise.
//
// It also reports whether the exact counts repeated among the runs of
// one workload and seed.
func compareDirs(dirA, dirB string, w io.Writer) error {
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	a, err := readRecords(dirA)
	if err != nil {
		return err
	}
	b, err := readRecords(dirB)
	if err != nil {
		return err
	}
	byWorkload := func(recs []result) map[string][]result {
		m := map[string][]result{}
		for _, r := range recs {
			if !r.Trace {
				m[r.Workload] = append(m[r.Workload], r)
			}
		}
		for _, rs := range m {
			sort.SliceStable(rs, func(i, j int) bool { return rs[i].Seed < rs[j].Seed })
		}
		return m
	}
	wa, wb := byWorkload(a), byWorkload(b)
	var names []string
	for _, wl := range workloads {
		if len(wa[wl.name]) > 0 && len(wb[wl.name]) > 0 {
			names = append(names, wl.name)
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("no workload has untraced runs in both %s and %s", dirA, dirB)
	}

	fmt.Fprintf(w, "%-16s %-12s %-34s %-34s %-7s %s\n", "workload", "metric",
		"A median [q1, q3]", "B median [q1, q3]", "B wins", "verdict")
	for _, name := range names {
		ra, rb := wa[name], wb[name]
		for _, m := range spec.EndToEnd {
			va, vb := values(ra, m.Name), values(rb, m.Name)
			lower := m.Better == "lower"
			v := judge(va, vb, m.Bound, lower)
			fmt.Fprintf(w, "%-16s %-12s %-34s %-34s %-7s %s\n", name, m.Name,
				quartileString(va), quartileString(vb), fmt.Sprintf("%d/%d", v.wins, v.pairs), v.verdict)
		}
		fmt.Fprintf(w, "%-16s counts: %s\n", name, countReport(append(append([]result(nil), ra...), rb...)))
	}
	return nil
}

func values(rs []result, metric string) []float64 {
	var v []float64
	for _, r := range rs {
		if x, ok := r.EndToEnd[metric]; ok {
			v = append(v, x)
		}
	}
	return v
}

type verdict struct {
	wins, pairs int
	verdict     string
}

func judge(a, b []float64, bound float64, lower bool) verdict {
	if len(a) == 0 || len(b) == 0 {
		return verdict{verdict: "no data"}
	}
	better := func(x, y float64) bool { // x reads better than y
		if lower {
			return x < y
		}
		return x > y
	}
	v := verdict{pairs: min(len(a), len(b))}
	for i := 0; i < v.pairs; i++ {
		if better(b[i], a[i]) {
			v.wins++
		}
	}
	qa, qb := quartiles(a), quartiles(b)
	spread := qa[2] - qa[0]
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(x, y)
		}
	}
	worse := (qb[1] - qa[1]) / qa[1]
	if !lower {
		worse = -worse
	}
	switch {
	case spread/math.Abs(qa[1]) > bound && !allBetter:
		v.verdict = "unresolved"
	case 10*v.wins >= 9*v.pairs && better(qb[1], qa[1]) && math.Abs(qb[1]-qa[1]) > spread:
		v.verdict = "better"
	case worse > bound:
		v.verdict = fmt.Sprintf("worse (%+.1f%%, bound %.0f%%)", 100*worse, 100*bound)
	default:
		v.verdict = "no worse"
	}
	return v
}

// quartiles returns q1, median, q3 the way Python's
// statistics.quantiles(data, n=4) does (its default, exclusive method).
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

func quartileString(xs []float64) string {
	if len(xs) == 0 {
		return "-"
	}
	q := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] n=%d", q[1], q[0], q[2], len(xs))
}

// exactCounts are the per-round counts a run's seed fixes: every run
// with that seed must reproduce them exactly, however many rounds it
// fits (go.gc_cycles, also a count, is not among them).
var exactCounts = []string{"attempted", "failed", "core.runs", "core.events",
	"spice.transients", "spice.steps", "spice.evals", "spice.standbys", "sizing.sims"}

// countReport says whether each exact count repeated across the runs of
// every seed.
func countReport(rs []result) string {
	var differ []string
	for _, c := range exactCounts {
		seen := map[int64]map[float64]bool{}
		for _, r := range rs {
			v := r.Layer[c]
			switch c {
			case "attempted":
				v = float64(r.Attempted) / float64(r.Rounds)
			case "failed":
				v = float64(r.Failed) / float64(r.Rounds)
			}
			if seen[r.Seed] == nil {
				seen[r.Seed] = map[float64]bool{}
			}
			seen[r.Seed][v] = true
		}
		for seed, vs := range seen {
			if len(vs) > 1 {
				differ = append(differ, fmt.Sprintf("%s (seed %d: %d values)", c, seed, len(vs)))
			}
		}
	}
	if len(differ) == 0 {
		return fmt.Sprintf("all %d identical per seed over %d runs", len(exactCounts), len(rs))
	}
	sort.Strings(differ)
	return "DIFFER " + strings.Join(differ, ", ")
}
