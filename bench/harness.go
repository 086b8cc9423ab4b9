package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"mtcmos/internal/sched"
)

// op is the unit the benchmark times and checks. run does the op's
// work through the layers' public functions, calls x.stop() when the
// work is done, and then checks the outputs; the op's latency ends at
// stop. An error, from a call or from a check, fails the op but not
// the run.
type op struct {
	name string
	run  func(x *opCtx) error
	deg  *degRef // set on the reference runs spice.deg_err_pp pairs up
}

// degRef marks one reference run of a Fig. 14 adder transition:
// spice.deg_err_pp pairs the transition's plain-CMOS (wl 0) and sized
// runs into a reference degradation and sets it against vbs.
type degRef struct {
	transition string
	wl         float64
	vbs        float64 // switch-level % degradation at the sized W/L
}

// opCtx carries what one op reports besides its error.
type opCtx struct {
	trace   *opTrace // nil when tracing is off
	stopped time.Time
	digest  string  // deterministic summary of the op's results
	delay   float64 // settling delay a reference run measured, in s
	tally   tally
}

func (x *opCtx) stop() {
	if x.stopped.IsZero() {
		x.stopped = time.Now()
	}
}

// tally is the work an op did, read from the layers' result fields.
type tally struct {
	CoreRuns, CoreEvents                                   int
	SpiceTransients, SpiceSteps, SpiceEvals, SpiceStandbys int
	SizingSims                                             int
}

func (t *tally) add(o tally) {
	t.CoreRuns += o.CoreRuns
	t.CoreEvents += o.CoreEvents
	t.SpiceTransients += o.SpiceTransients
	t.SpiceSteps += o.SpiceSteps
	t.SpiceEvals += o.SpiceEvals
	t.SpiceStandbys += o.SpiceStandbys
	t.SizingSims += o.SizingSims
}

// workload is one named traffic mix. setup builds, from the seed, the
// ops of one round; every round of a run repeats them, so a run's
// counts per round do not depend on how many rounds it fits. small cuts
// a round to a handful of ops (tests only).
type workload struct {
	name    string
	clients int // closed-loop clients; 0 means one per CPU
	setup   func(seed int64, small bool) ([]op, error)
}

type runConfig struct {
	seed    int64
	seconds time.Duration // run length: the whole rounds that fit, at least one
	trace   bool
	small   bool // test scale
}

// opRecord is one executed op; times are offsets from its round's start.
type opRecord struct {
	name             string
	start, stop, end time.Duration
	err              error
	digest           string
	deg              *degRef
	delay            float64
	tally            tally
}

type round struct {
	wall, busy, tail time.Duration
}

// result is one workload run: what the final JSON line reports, plus
// the records -out writes and -compare reads.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Rounds    int                `json:"rounds"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	EndToEnd  map[string]float64 `json:"end_to_end,omitempty"`
	Layer     map[string]float64 `json:"layer"`
	digests   []string
	tracer    *tracer
}

// runWorkload sets the workload up once and runs its rounds.
func runWorkload(w workload, cfg runConfig) (*result, error) {
	ops, err := w.setup(cfg.seed, cfg.small)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	clients := w.clients
	if clients <= 0 {
		clients = runtime.GOMAXPROCS(0)
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}

	res := &result{Workload: w.name, Seed: cfg.seed, Trace: cfg.trace, tracer: tr}
	var tl tally
	var walls, degErr []float64
	lat := make([][]float64, len(ops)) // per op, its latency in each round
	var sumWall, sumBusy, sumTail time.Duration
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	// Another round starts only if, at the mean round time so far, it
	// ends within cfg.seconds. A round's records are folded in and
	// dropped, keeping only each op's latency, so that peak memory grows
	// by no more than 8 bytes per op and round.
	for t0 := time.Now(); ; {
		rd, recs := runRound(ops, clients, res.Attempted, tr)
		res.Rounds++
		res.Attempted += len(recs)
		walls = append(walls, rd.wall.Seconds())
		sumWall += rd.wall
		sumBusy += rd.busy
		sumTail += rd.tail
		for i, rc := range recs {
			tl.add(rc.tally)
			lat[i] = append(lat[i], float64(rc.stop-rc.start)/float64(time.Millisecond))
			if rc.err != nil {
				res.Failed++
				res.Failures = append(res.Failures, fmt.Sprintf("%s: %v", rc.name, rc.err))
			}
		}
		if res.Rounds == 1 { // later rounds repeat these results
			for _, rc := range recs {
				res.digests = append(res.digests, rc.digest)
			}
			degErr = degErrors(recs)
		}
		if el := time.Since(t0); el+el/time.Duration(res.Rounds) > cfg.seconds {
			break
		}
	}
	runtime.ReadMemStats(&after)
	res.Correct = res.Failed == 0

	// Counts are per round. Rounds repeat the seed's ops, so the counts
	// repeat exactly between runs with the same seed.
	perRound := func(n int) float64 { return float64(n) / float64(res.Rounds) }
	res.Layer = map[string]float64{
		"core.runs":        perRound(tl.CoreRuns),
		"core.events":      perRound(tl.CoreEvents),
		"spice.transients": perRound(tl.SpiceTransients),
		"spice.steps":      perRound(tl.SpiceSteps),
		"spice.evals":      perRound(tl.SpiceEvals),
		"spice.standbys":   perRound(tl.SpiceStandbys),
		"sizing.sims":      perRound(tl.SizingSims),
		"spice.deg_err_pp": median(degErr),
		"sched.busy_pct":   100 * float64(sumBusy) / float64(int64(clients)*int64(sumWall)),
		"sched.tail_pct":   100 * float64(sumTail) / float64(sumWall),
		"go.alloc_mb":      float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20) / float64(res.Rounds),
		"go.gc_cycles":     perRound(int(after.NumGC - before.NumGC)),
	}
	res.Layer["spice.evals_per_step"] = ratio(tl.SpiceEvals, tl.SpiceSteps)
	if !cfg.trace {
		// An op's latency is its median over the run's rounds, so a host
		// slowdown during one round moves neither percentile.
		opLat := make([]float64, len(lat))
		for i, l := range lat {
			opLat[i] = median(l)
		}
		res.EndToEnd = map[string]float64{
			"wall_s":      median(walls),
			"ops_per_s":   float64(res.Attempted) / sumWall.Seconds(),
			"op_p50_ms":   quantile(opLat, 0.5),
			"op_p90_ms":   quantile(opLat, 0.9),
			"peak_rss_mb": peakRSSMB(),
		}
		return res, nil
	}

	self, total := tr.selfTimes()
	share := func(name string) float64 { return 100 * float64(self[name]) / float64(total) }
	for _, s := range layerSpans {
		res.Layer[s+"_pct"] = share(s)
	}
	for _, id := range experimentIDs {
		res.Layer["experiments."+id+"_pct"] = share("experiments." + id)
	}
	res.Layer["bench.op_pct"] = share(rootOp)
	res.Layer["bench.check_pct"] = share(rootCheck)
	// Host-time rates of the two engines: simulated work per second
	// spent in the call that does it (0 where the engine did not run).
	perSecond := func(n int, d time.Duration) float64 {
		if d <= 0 {
			return 0
		}
		return float64(n) / d.Seconds()
	}
	res.Layer["core.events_per_s"] = perSecond(tl.CoreEvents, self["core.run"])
	res.Layer["spice.evals_per_s"] = perSecond(tl.SpiceEvals, self["spice.transient"])
	res.Layer["trace.wall_s"] = median(walls)
	res.Layer["mosfet.ids_ns"], res.Layer["mosfet.idsderiv_ns"] = mosfetProbe()
	return res, nil
}

// runRound runs one round's ops on a pool of closed-loop clients and
// returns the round's timing and the ops' records. first numbers the
// round's ops after those of earlier rounds (trace op ids).
func runRound(ops []op, clients, first int, tr *tracer) (round, []opRecord) {
	recs := make([]opRecord, len(ops))
	t0 := time.Now()
	// Every op recovers its own panics, so MapAll reports no errors.
	sched.MapAll(context.Background(), clients, len(ops), func(i int) (struct{}, error) {
		recs[i] = execOp(ops[i], int64(first+i+1), t0, tr)
		return struct{}{}, nil
	})
	rd := round{wall: time.Since(t0)}
	ends := make([]time.Duration, len(recs))
	for i, rc := range recs {
		rd.busy += rc.end - rc.start
		ends[i] = rc.end
	}
	// A greedy pool hands out its last op before any client goes idle,
	// so each client's final op ends among the last `clients` ends; the
	// earliest of those is when the first client ran out of work.
	sort.Slice(ends, func(i, j int) bool { return ends[i] > ends[j] })
	if k := min(clients, len(ends)); k > 0 {
		rd.tail = rd.wall - ends[k-1]
	}
	return rd, recs
}

// Root span names: an op's own work, and the benchmark's check of it.
const (
	rootOp    = "bench.op"
	rootCheck = "bench.check"
)

func execOp(o op, id int64, t0 time.Time, tr *tracer) (rec opRecord) {
	x := &opCtx{}
	if tr != nil {
		x.trace = &opTrace{tr: tr, op: id, root: tr.nextID.Add(1)}
	}
	start := time.Now()
	defer func() {
		if p := recover(); p != nil {
			rec.err = fmt.Errorf("panic: %v", p)
		}
		end := time.Now()
		x.stop()
		if tr != nil {
			tr.add(span{name: o.name, layer: rootOp, start: start.Sub(tr.t0), end: x.stopped.Sub(tr.t0), id: x.trace.root, op: id})
			tr.add(span{name: "check " + o.name, layer: rootCheck, start: x.stopped.Sub(tr.t0), end: end.Sub(tr.t0), id: tr.nextID.Add(1), op: id})
		}
		rec.name, rec.digest, rec.deg, rec.delay, rec.tally = o.name, x.digest, o.deg, x.delay, x.tally
		rec.start, rec.stop, rec.end = start.Sub(t0), x.stopped.Sub(t0), end.Sub(t0)
	}()
	rec.err = o.run(x)
	return rec
}

// degErrors is, per adder transition whose two reference runs passed,
// the distance between its reference and switch-level % degradation,
// the quantity Fig. 14 plots.
func degErrors(recs []opRecord) []float64 {
	type pair struct{ base, sized, vbs float64 }
	byTransition := map[string]*pair{}
	for _, rc := range recs {
		if rc.deg == nil || rc.err != nil {
			continue
		}
		p := byTransition[rc.deg.transition]
		if p == nil {
			p = &pair{vbs: rc.deg.vbs}
			byTransition[rc.deg.transition] = p
		}
		if rc.deg.wl == 0 {
			p.base = rc.delay
		} else {
			p.sized = rc.delay
		}
	}
	var errs []float64
	for _, p := range byTransition {
		if p.base > 0 && p.sized > 0 {
			errs = append(errs, math.Abs(100*(p.sized-p.base)/p.base-p.vbs))
		}
	}
	return errs
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// quantile interpolates linearly between the closest ranks; 0 for no data.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
