package experiments

import (
	"fmt"
	"sort"

	"mtcmos/internal/core"
	"mtcmos/internal/report"
	"mtcmos/internal/vectors"
)

// screenEntry carries one transition's scores under the three screens.
type screenEntry struct {
	idx     int
	deg     float64 // switch-level degradation (the reference here)
	toggles float64 // static: falling-net count
	weight  float64 // static: falling-net discharge weight
}

// Screen quantifies the paper's proposed workflow (sections 5 and 7):
// "the tool is more useful for identifying potential vectors that will
// cause large variations ... and can be used to narrow down the vector
// space to be analyzed with a more detailed simulator". It compares
// three screens over the exhaustive adder transition space:
//
//   - a static toggle count (two logic evaluations, no timing at all),
//   - a static discharge weight (falling nets weighted by drive and load),
//   - the switch-level simulator's degradation estimate,
//
// scoring each by how much of the true worst decile (switch-level at
// full fidelity) its top picks capture.
func Screen(cfg Config) (*Output, error) {
	cfg = cfg.withDefaults()
	out := &Output{ID: "screen", Title: "Sec. 5/7: narrowing the vector space with cheap screens"}
	const wl = 10.0
	ad := paperAdder(cfg.AdderBits)
	outs := ad.Circuit.OutputNames()
	space := adderSpace(cfg.AdderBits)
	half := uint64(1) << uint(cfg.AdderBits)
	eq := ad.Circuit.Equiv()
	cp, err := core.Compile(ad.Circuit)
	if err != nil {
		return nil, err
	}

	var entries []screenEntry
	err = space.Exhaustive(func(o, w uint64, tr vectors.Transition) error {
		oa, ob := o%half, o/half
		na, nb := w%half, w/half
		ov, err := ad.Evaluate(ad.Inputs(oa, ob, false))
		if err != nil {
			return err
		}
		nv, err := ad.Evaluate(ad.Inputs(na, nb, false))
		if err != nil {
			return err
		}
		e := screenEntry{idx: len(entries)}
		for _, g := range ad.Circuit.Gates {
			name := g.Out.Name
			if ov[name] && !nv[name] { // falls
				e.toggles++
				e.weight += eq[g.ID].BetaN * eq[g.ID].CL
			}
		}
		if e.toggles == 0 {
			// The static screens cannot see glitch-only activity;
			// skipping these is part of what the experiment measures.
			return nil
		}
		stim := adderStim(ad, oa, ob, na, nb)
		deg, ok, err := degVBS(cfg, cp, stim, wl, outs)
		if err != nil || !ok {
			return err
		}
		e.deg = deg
		entries = append(entries, e)
		return nil
	})
	if err != nil {
		return nil, err
	}

	n := len(entries)
	if n < 20 {
		return nil, fmt.Errorf("screen: too few active transitions (%d)", n)
	}
	// The "truth": worst decile by switch-level degradation.
	byDeg := append([]screenEntry(nil), entries...)
	sort.Slice(byDeg, func(i, j int) bool { return byDeg[i].deg > byDeg[j].deg })
	topN := n / 10
	truth := map[int]bool{}
	for i := 0; i < topN; i++ {
		truth[byDeg[i].idx] = true
	}

	recall := func(metric func(screenEntry) float64, k int) float64 {
		ranked := append([]screenEntry(nil), entries...)
		sort.Slice(ranked, func(i, j int) bool { return metric(ranked[i]) > metric(ranked[j]) })
		hits := 0
		for i := 0; i < k && i < len(ranked); i++ {
			if truth[ranked[i].idx] {
				hits++
			}
		}
		return float64(hits) / float64(topN)
	}

	tb := report.NewTable(
		fmt.Sprintf("Recall of the true worst decile (%d of %d transitions, W/L=%g)", topN, n, wl),
		"screen", "top 10%", "top 20%", "top 40%")
	for _, sc := range []struct {
		name   string
		metric func(screenEntry) float64
	}{
		{"static toggle count", func(e screenEntry) float64 { return e.toggles }},
		{"static discharge weight", func(e screenEntry) float64 { return e.weight }},
		{"switch-level degradation", func(e screenEntry) float64 { return e.deg }},
	} {
		tb.Addf("%s\t%.0f%%\t%.0f%%\t%.0f%%",
			sc.name, 100*recall(sc.metric, topN), 100*recall(sc.metric, 2*topN), 100*recall(sc.metric, 4*topN))
	}
	out.Tables = append(out.Tables, tb)

	rho := spearman(entries,
		func(e screenEntry) float64 { return e.weight },
		func(e screenEntry) float64 { return e.deg })
	out.note("Spearman rank correlation, static discharge weight vs switch-level degradation: %.2f", rho)
	out.note("the switch-level screen is exact by construction here; the static screens are free but miss worst-case vectors — which is why the paper builds a timing-aware tool instead of counting toggles")
	return out, nil
}

// spearman computes the Spearman rank correlation of two metrics over
// the entries (no tie correction; adequate for a screening summary).
func spearman(es []screenEntry, a, b func(screenEntry) float64) float64 {
	n := len(es)
	ra := ranks(es, a)
	rb := ranks(es, b)
	var d2 float64
	for i := 0; i < n; i++ {
		d := ra[i] - rb[i]
		d2 += d * d
	}
	return 1 - 6*d2/(float64(n)*(float64(n)*float64(n)-1))
}

func ranks(es []screenEntry, m func(screenEntry) float64) []float64 {
	n := len(es)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return m(es[idx[i]]) < m(es[idx[j]]) })
	r := make([]float64, n)
	for rank, i := range idx {
		r[i] = float64(rank)
	}
	return r
}
