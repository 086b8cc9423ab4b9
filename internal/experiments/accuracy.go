package experiments

import (
	"mtcmos/internal/circuits"
	"mtcmos/internal/core"
	"mtcmos/internal/report"
)

// Accuracy runs the section 5.3 "future work" study: how much of the
// switch-level model's optimistic offset against the reference engine
// is recovered by the input-slope and triode-region corrections. The
// paper: "By addressing these issues in future work, the simulator
// accuracy can be improved significantly."
func Accuracy(cfg Config) (*Output, error) {
	cfg = cfg.withDefaults()
	rise := circuits.InputEdge(false, true).Stimulus()
	out := &Output{ID: "accuracy", Title: "Sec. 5.3 extension: input-slope and triode corrections"}

	variants := []struct {
		name string
		opts core.Options
	}{
		{"plain", core.Options{}},
		{"+slope", core.Options{InputSlope: true}},
		{"+triode", core.Options{Triode: true}},
		{"+both", core.Options{InputSlope: true, Triode: true}},
	}

	cols := []string{"plain_ns", "slope_ns", "triode_ns", "both_ns"}
	if !cfg.Fast {
		cols = append(cols, "ref_ns", "err_plain_pct", "err_both_pct")
	}
	s := report.NewSeries("Tree worst delay vs W/L under model refinements", "W/L", cols...)

	for _, wl := range []float64{5, 8, 14, 20} {
		c := circuits.PaperTree()
		c.SleepWL = wl
		ds := make([]float64, len(variants))
		for vi, v := range variants {
			d, _, err := vbsDelay(cfg, c, rise, v.opts)
			if err != nil {
				return nil, err
			}
			ds[vi] = d
		}
		row := []float64{ds[0] * 1e9, ds[1] * 1e9, ds[2] * 1e9, ds[3] * 1e9}
		if !cfg.Fast {
			ref, _, err := spiceDelay(cfg, c, rise, spiceHorizon(ds[0]))
			if err != nil {
				return nil, err
			}
			row = append(row, ref*1e9, 100*(ds[0]-ref)/ref, 100*(ds[3]-ref)/ref)
		}
		s.Add(wl, row...)
	}
	out.Series = append(out.Series, s)
	out.note("each correction slows the first-order model toward the reference; the residual offset is the remaining unmodeled physics (compound-gate internals, Miller coupling) the paper also names")
	return out, nil
}
