package main

import (
	"runtime"
	"syscall"
	"time"

	"mtcmos/internal/mosfet"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the tools sees, measured with
// tracing off. setup_s is filled in by the caller of runWorkload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"ops_per_s", "ops/s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// layerSpans are the spans the workloads record around layer calls;
// each becomes a <span>_pct metric: its self time as a share of all
// traced op and check time.
var layerSpans = []string{
	"circuit.build", "circuit.evaluate", "circuit.expand",
	"netlist.flatten",
	"core.run",
	"spice.compile", "spice.transient", "spice.standby",
	"sizing.delay_target",
}

// experimentIDs are the paper workload's experiments, one
// experiments.<id>_pct metric each.
var experimentIDs = []string{
	"fig5", "fig7", "table1", "fig10", "fig11", "fig13", "fig14", "speedup",
	"peak", "widths", "cx", "reverse", "body", "hier", "accuracy", "standby",
	"screen", "lint", "sca", "refine",
}

// perLayer lists the metrics of the traced pass, in print order.
func perLayer() []metricDef {
	defs := []metricDef{
		{"core.runs", "count"}, {"core.events", "count"}, {"core.events_per_s", "1/s"},
		{"spice.transients", "count"}, {"spice.steps", "count"}, {"spice.evals", "count"},
		{"spice.evals_per_step", "evals/step"}, {"spice.evals_per_s", "1/s"},
		{"spice.standbys", "count"}, {"spice.deg_err_pp", "pp"},
		{"sizing.sims", "count"},
		{"mosfet.ids_ns", "ns"}, {"mosfet.idsderiv_ns", "ns"},
		{"sched.busy_pct", "%"}, {"sched.tail_pct", "%"},
		{"go.alloc_mb", "MB"}, {"go.gc_cycles", "count"},
		{"trace.wall_s", "s"},
		{"bench.op_pct", "%"}, {"bench.check_pct", "%"},
	}
	for _, s := range layerSpans {
		defs = append(defs, metricDef{s + "_pct", "%"})
	}
	for _, id := range experimentIDs {
		defs = append(defs, metricDef{"experiments." + id + "_pct", "%"})
	}
	return defs
}

// peakRSSMB is the process's peak resident set size (VmHWM on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	kb := float64(ru.Maxrss)
	if runtime.GOOS == "darwin" { // bytes there, KiB on Linux
		kb /= 1024
	}
	return kb / 1024
}

var probeSink float64

// mosfetProbe times the device model alone over a fixed 2^20-point
// (vgs, vds, vsb) grid: nanoseconds per Ids and per IdsDeriv call.
func mosfetProbe() (idsNs, derivNs float64) {
	tech := mosfet.Tech07()
	d := mosfet.NewNMOS(&tech, 10)
	const n = 1 << 20
	runtime.GC() // so no collection left over from the workload runs alongside
	bias := func(i int) (vgs, vds, vsb float64) {
		return float64(i>>13) * tech.Vdd / 127, float64(i>>6&127) * tech.Vdd / 127, float64(i&63) * 0.5 / 63
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		probeSink += d.Ids(bias(i))
	}
	idsNs = float64(time.Since(start).Nanoseconds()) / n
	start = time.Now()
	for i := 0; i < n; i++ {
		ids, gm, gds, gmb := d.IdsDeriv(bias(i))
		probeSink += ids + gm + gds + gmb
	}
	derivNs = float64(time.Since(start).Nanoseconds()) / n
	return idsNs, derivNs
}
