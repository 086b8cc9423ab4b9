package experiments

import (
	"mtcmos/internal/circuits"
	"mtcmos/internal/power"
	"mtcmos/internal/report"
	"mtcmos/internal/spice"
)

// StandbyExp quantifies the reason MTCMOS exists (paper section 1):
// sleep-mode leakage versus the ungated circuit, measured with the
// reference engine's DC solver and compared against the analytic
// series-leakage model, across sleep-transistor sizes. Larger sleep
// devices leak more in standby and cost more gate energy — the upper
// side of the sizing trade-off (paper section 2.1: "increased
// switching energy overhead and increased leakage current can also be
// limiting factors").
func StandbyExp(cfg Config) (*Output, error) {
	cfg = cfg.withDefaults()
	out := &Output{ID: "standby", Title: "Sec. 1/2.1: standby leakage and sleep-device overhead"}

	bits := cfg.AdderBits - 1
	if bits < 2 {
		bits = 2
	}
	s := report.NewSeries("Adder standby analysis vs sleep W/L (reference-engine DC)",
		"W/L", "vgnd_float_V", "standby_fA", "reduction_x", "analytic_x", "sleep_E_fJ", "breakeven_us")
	for _, wl := range []float64{5, 20, 80, 320} {
		ad := circuits.PaperAdder(bits)
		ad.SleepWL = wl
		res, err := spice.StandbyContext(cfg.Ctx, ad.Circuit, ad.Inputs(3, 0, false))
		if err != nil {
			return nil, err
		}
		ps, err := power.Analyze(ad.Circuit)
		if err != nil {
			return nil, err
		}
		s.Add(wl, res.VGndFloat, res.Standby*1e15, res.Reduction,
			ps.LeakageReduction, ps.SleepSwitchEnergy*1e15, ps.BreakEvenIdle*1e6)
	}
	out.Series = append(out.Series, s)
	out.note("the virtual ground floats to ~Vdd in standby (internal state collapse), so the high-Vt device's subthreshold current bounds the whole block")
	out.note("standby leakage grows linearly with the sleep W/L — the flip side of sizing it large for speed")
	return out, nil
}
