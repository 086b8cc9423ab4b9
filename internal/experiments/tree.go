package experiments

import (
	"fmt"

	"mtcmos/internal/circuit"
	"mtcmos/internal/circuits"
	"mtcmos/internal/core"
	"mtcmos/internal/report"
	"mtcmos/internal/sched"
	"mtcmos/internal/spice"
	"mtcmos/internal/units"
)

// treeWLs is the paper's Fig. 5 sweep: "W/L = 20, 17, 14, 11, 8, 5, 2".
var treeWLs = []float64{2, 5, 8, 11, 14, 17, 20}

const treeTStop = 30e-9

// spiceHorizon pads a switch-level delay estimate into a safe
// reference-engine horizon: the detailed engine shows more slowdown at
// extreme bounce than the first-order model (paper section 5.3), so
// give it generous room.
func spiceHorizon(vbs float64) float64 {
	h := circuit.EdgeAt + 6*vbs + 3e-9
	if h < 10e-9 {
		h = 10e-9
	}
	return h
}

// Fig5 regenerates the paper's Fig. 5: reference-engine transients of
// the inverter tree's leaf output and virtual ground for each sleep
// size, showing the output slow down and the ground bounce grow as W/L
// shrinks.
func Fig5(cfg Config) (*Output, error) {
	cfg = cfg.withDefaults()
	rise := circuits.InputEdge(false, true).Stimulus()
	out := &Output{ID: "fig5", Title: "Fig. 5: inverter tree transients vs sleep W/L"}

	cols := make([]string, len(treeWLs))
	for i, wl := range treeWLs {
		cols[i] = fmt.Sprintf("W/L=%g", wl)
	}
	vout := report.NewSeries("Leaf output V(s3_0) [V] vs time [ns]", "t_ns", cols...)
	vgnd := report.NewSeries("Virtual ground Vx [V] vs time [ns]", "t_ns", cols...)

	engine := "switch-level"
	samples := 60
	traces := make([]func(float64) (float64, float64), len(treeWLs))
	for i, wl := range treeWLs {
		c := circuits.PaperTree()
		c.SleepWL = wl
		if cfg.Fast {
			res, err := core.Simulate(c, rise, cfg.simOpts(core.Options{TraceNets: []string{"s3_0"}, TStop: treeTStop}))
			if err != nil {
				return nil, err
			}
			w := res.Waves["s3_0"]
			vg := res.VGnd
			traces[i] = func(t float64) (float64, float64) { return w.At(t), vg.At(t) }
		} else {
			engine = "reference engine"
			res, err := spice.Run(c, rise, spice.RunOptions{
				Options:    spice.Options{TStop: treeTStop, SampleDT: 20e-12, Ctx: cfg.Ctx},
				RecordNets: []string{"s3_0"},
			})
			if err != nil {
				return nil, err
			}
			w := res.OutTrace("s3_0")
			vg := res.VGndTrace()
			traces[i] = func(t float64) (float64, float64) { return w.At(t), vg.At(t) }
		}
	}
	for k := 0; k <= samples; k++ {
		t := treeTStop * float64(k) / float64(samples)
		vs := make([]float64, len(treeWLs))
		gs := make([]float64, len(treeWLs))
		for i := range traces {
			vs[i], gs[i] = traces[i](t)
		}
		vout.Add(t*1e9, vs...)
		vgnd.Add(t*1e9, gs...)
	}
	out.Series = append(out.Series, vout, vgnd)
	out.note("engine: %s; paper shape: output high-to-low transition slows and Vx bounce grows as W/L shrinks from 20 to 2", engine)
	return out, nil
}

// Fig10 regenerates Fig. 10: inverter-tree propagation delay vs sleep
// W/L, reference engine vs the switch-level simulator.
func Fig10(cfg Config) (*Output, error) {
	cfg = cfg.withDefaults()
	rise := circuits.InputEdge(false, true).Stimulus()
	out := &Output{ID: "fig10", Title: "Fig. 10: tree delay vs W/L, reference vs switch-level"}
	cols := []string{"vbs_ns"}
	if !cfg.Fast {
		cols = append(cols, "spice_ns", "ratio")
	}
	s := report.NewSeries("Inverter tree worst delay vs sleep W/L", "W/L", cols...)
	// Every W/L point is independent; each job owns a private circuit
	// (the reference engine compiles from it), so the fan-out shares
	// nothing.
	type point struct{ dv, ds float64 }
	pts, err := sched.Map(cfg.Ctx, cfg.Workers, len(treeWLs), func(i int) (point, error) {
		c := circuits.PaperTree()
		c.SleepWL = treeWLs[i]
		dv, _, err := vbsDelay(cfg, c, rise, core.Options{})
		if err != nil {
			return point{}, err
		}
		if cfg.Fast {
			return point{dv: dv}, nil
		}
		ds, _, err := spiceDelay(cfg, c, rise, spiceHorizon(dv))
		if err != nil {
			return point{}, err
		}
		return point{dv: dv, ds: ds}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, wl := range treeWLs {
		if cfg.Fast {
			s.Add(wl, pts[i].dv*1e9)
			continue
		}
		s.Add(wl, pts[i].dv*1e9, pts[i].ds*1e9, pts[i].dv/pts[i].ds)
	}
	out.Series = append(out.Series, s)
	out.note("paper shape: both engines show delay rising steeply below W/L≈8 and flattening above; the switch-level tool tracks the reference trend")
	return out, nil
}

// Fig11 regenerates Fig. 11: the virtual-ground transient during the
// tree transition — smooth in the reference engine, stepwise in the
// switch-level tool — plus the very-high-resistance case where a large
// RC makes the rail slow to recover.
func Fig11(cfg Config) (*Output, error) {
	cfg = cfg.withDefaults()
	rise := circuits.InputEdge(false, true).Stimulus()
	out := &Output{ID: "fig11", Title: "Fig. 11: ground bounce transient comparison"}
	const wl = 8.0

	c := circuits.PaperTree()
	c.SleepWL = wl
	vres, err := core.Simulate(c, rise, cfg.simOpts(core.Options{TStop: treeTStop}))
	if err != nil {
		return nil, err
	}

	cols := []string{"vbs_Vx"}
	var spiceVg func(float64) float64
	if !cfg.Fast {
		cols = append(cols, "spice_Vx")
		sres, err := spice.Run(c, rise, spice.RunOptions{
			Options:    spice.Options{TStop: treeTStop, SampleDT: 20e-12, Ctx: cfg.Ctx},
			RecordNets: []string{"s3_0"},
		})
		if err != nil {
			return nil, err
		}
		tr := sres.VGndTrace()
		spiceVg = tr.At
	}
	s := report.NewSeries(fmt.Sprintf("Virtual ground Vx [V] at W/L=%g", wl), "t_ns", cols...)
	for k := 0; k <= 80; k++ {
		t := treeTStop * float64(k) / 80
		row := []float64{vres.VGnd.At(t)}
		if spiceVg != nil {
			row = append(row, spiceVg(t))
		}
		s.Add(t*1e9, row...)
	}
	out.Series = append(out.Series, s)

	// Very-high-resistance case: tiny sleep device with a parasitic Cx
	// gives a long RC recovery tail (paper: "for the very high
	// resistance case the virtual ground is very slow in discharging").
	cHi := circuits.PaperTree()
	cHi.SleepWL = 0.5
	cHi.VGndCap = 2e-12
	hres, err := core.Simulate(cHi, rise, cfg.simOpts(core.Options{TStop: 4 * treeTStop}))
	if err != nil {
		return nil, err
	}
	r, _ := cHi.SleepResistance()
	out.note("high-R case: W/L=0.5 (R=%s) with Cx=2pF peaks at %s and recovers with tau=%s",
		units.Ohms(r), units.Volts(hres.PeakVx), units.Seconds(r*cHi.VGndCap))
	out.note("paper shape: switch-level Vx is stepwise (discharge modeled as constant current sources); reference Vx is smooth")
	return out, nil
}

// AblationCx regenerates the section 2.2 analysis: sweeping the
// virtual-ground parasitic capacitance shows it filters the bounce but
// needs to be enormous to substitute for proper sizing, and a large RC
// is slow to recover.
func AblationCx(cfg Config) (*Output, error) {
	cfg = cfg.withDefaults()
	rise := circuits.InputEdge(false, true).Stimulus()
	out := &Output{ID: "cx", Title: "Sec. 2.2 ablation: virtual-ground parasitic capacitance"}
	const wl = 5.0
	cxs := []float64{0, 0.1e-12, 0.5e-12, 2e-12, 10e-12, 50e-12}
	s := report.NewSeries(fmt.Sprintf("Bounce and delay vs Cx at W/L=%g", wl),
		"Cx_pF", "peakVx_mV", "delay_ns", "recovery_ns")
	for _, cx := range cxs {
		c := circuits.PaperTree()
		c.SleepWL = wl
		c.VGndCap = cx
		d, res, err := vbsDelay(cfg, c, rise, core.Options{})
		if err != nil {
			return nil, err
		}
		recovery := 0.0
		if cx > 0 {
			r, _ := c.SleepResistance()
			recovery = 3 * r * cx // to ~5% of peak
		}
		s.Add(cx*1e12, res.PeakVx*1e3, d*1e9, recovery*1e9)
	}
	out.Series = append(out.Series, s)
	out.note("paper shape: Cx must reach tens of pF before it meaningfully filters the bounce; the RC recovery tail grows linearly with Cx — sizing the device is the better lever")
	return out, nil
}

// AblationBody regenerates the section 5.3 accuracy discussion: how
// much of the MTCMOS slowdown the body-effect term contributes in the
// switch-level model, vs the reference engine.
func AblationBody(cfg Config) (*Output, error) {
	cfg = cfg.withDefaults()
	rise := circuits.InputEdge(false, true).Stimulus()
	out := &Output{ID: "body", Title: "Sec. 5.3 ablation: body effect in the switch-level model"}
	cols := []string{"vbs_body_ns", "vbs_nobody_ns"}
	if !cfg.Fast {
		cols = append(cols, "spice_ns", "err_body_pct", "err_nobody_pct")
	}
	s := report.NewSeries("Tree worst delay vs W/L with and without body effect", "W/L", cols...)
	for _, wl := range []float64{2, 5, 8, 14, 20} {
		c := circuits.PaperTree()
		c.SleepWL = wl
		dBody, _, err := vbsDelay(cfg, c, rise, core.Options{})
		if err != nil {
			return nil, err
		}
		dNoBody, _, err := vbsDelay(cfg, c, rise, core.Options{NoBodyEffect: true})
		if err != nil {
			return nil, err
		}
		if cfg.Fast {
			s.Add(wl, dBody*1e9, dNoBody*1e9)
			continue
		}
		ds, _, err := spiceDelay(cfg, c, rise, spiceHorizon(dBody))
		if err != nil {
			return nil, err
		}
		s.Add(wl, dBody*1e9, dNoBody*1e9, ds*1e9,
			100*(dBody-ds)/ds, 100*(dNoBody-ds)/ds)
	}
	out.Series = append(out.Series, s)
	out.note("expected: dropping the body-effect term makes the switch-level model optimistic, most visibly at small W/L where the bounce is largest")
	return out, nil
}
