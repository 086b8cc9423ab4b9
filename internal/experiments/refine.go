package experiments

import (
	"fmt"

	"mtcmos/internal/report"
	"mtcmos/internal/sca"
	"mtcmos/internal/sizing"
)

// Refine is the mutual-exclusion refinement experiment (DESIGN.md
// §11): on each benchmark it reports the full bound ladder
//
//	simulated width ≤ refined bound ≤ static level bound ≤ sum-of-widths
//
// where the refined bound lets gate pairs the two-frame SAT engine
// proves mutually exclusive contribute max instead of sum to their
// arrival window's width. The experiment fails if the ladder is
// violated anywhere, if fewer than two benchmarks actually tighten
// (refined < static), or if any exclusion proof's witness fails
// switch-level replay.
func Refine(cfg Config) (*Output, error) {
	cfg = cfg.withDefaults()
	out := &Output{ID: "refine", Title: "SAT-backed mutual-exclusion refinement of the static level bound"}

	sel := paperSelect(8)
	selVec := func(s bool, a, b uint64) map[string]bool {
		in := map[string]bool{"sel": s}
		for i := 0; i < 8; i++ {
			in[fmt.Sprintf("a%d", i)] = a>>uint(i)&1 == 1
			in[fmt.Sprintf("b%d", i)] = b>>uint(i)&1 == 1
		}
		return in
	}
	selTrs := []sizing.Transition{
		{Old: selVec(false, 0, 0), New: selVec(true, 0xff, 0xff), Label: "switch branch"},
		{Old: selVec(false, 0xff, 0xff), New: selVec(false, 0, 0xff), Label: "A falls"},
		{Old: selVec(true, 0xff, 0xff), New: selVec(true, 0xff, 0), Label: "B falls"},
	}

	benches := append(ladderBenches(cfg), ladderBench{"8-bit select tree", sel, cfg.sizingCfg(nil), selTrs})

	tb := report.NewTable("Bound ladder (W/L units)",
		"circuit", "gates", "simulated", "refined", "static level", "sum-of-widths", "proven excl", "refinement")
	tightened := 0
	proofs := make([]*sca.ExclusionStats, len(benches))
	for i, b := range benches {
		st, err := sizing.StaticLevel(b.c, sizing.Refine(sca.ExclConfig{Workers: cfg.Workers, Ctx: cfg.Ctx}))
		if err != nil {
			return nil, fmt.Errorf("refine: %s: %w", b.name, err)
		}
		sim, err := sizing.SimultaneousWidth(b.c, b.scfg, b.trs)
		if err != nil {
			return nil, fmt.Errorf("refine: %s: %w", b.name, err)
		}
		ex := st.Exclusions
		proofs[i] = ex
		if !(sim <= st.Refined && st.Refined <= st.WL && st.WL <= st.SumOfWidths) {
			return nil, fmt.Errorf("refine: %s violates the bound ladder: simulated %.1f, refined %.1f, static %.1f, sum %.1f",
				b.name, sim, st.Refined, st.WL, st.SumOfWidths)
		}
		if ex.ReplayFailed > 0 {
			return nil, fmt.Errorf("refine: %s: %d fall witnesses failed switch-level replay", b.name, ex.ReplayFailed)
		}
		if ex.Fallback != "" {
			return nil, fmt.Errorf("refine: %s: refinement fell back to the static bound: %s", b.name, ex.Fallback)
		}
		if st.Refined < st.WL {
			tightened++
		}
		tb.Addf("%s\t%d\t%.0f\t%.0f\t%.0f\t%.0f\t%d\t%.2fx",
			b.name, len(b.c.Gates), sim, st.Refined, st.WL, st.SumOfWidths, ex.Proven, st.WL/st.Refined)
	}
	out.Tables = append(out.Tables, tb)
	if tightened < 2 {
		return nil, fmt.Errorf("refine: expected the refinement to tighten at least two benchmarks, got %d", tightened)
	}

	t2 := report.NewTable("Exclusion-proof effort",
		"circuit", "candidate pairs", "prefilter refuted", "SAT queried", "proven", "unknown", "replayed", "truncated")
	for i, b := range benches {
		s := proofs[i]
		t2.Addf("%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d",
			b.name, s.CandidatePairs, s.PrefilterRefuted, s.Queried, s.Proven,
			s.Unknown, s.ReplayChecked, s.TruncatedPairs+s.PathTruncated)
	}
	out.Tables = append(out.Tables, t2)

	out.note("every proven exclusion rests on a two-frame SAT proof over the expanded transistor deck, with each gate's fall witness spot-validated by the independent switch-level replay harness")
	out.note("budget truncation (pair cap, conflict cap, path caps) always degrades toward the unrefined static bound — the ladder stays sound under any budget")
	return out, nil
}
