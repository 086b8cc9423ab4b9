package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, or one whole op (a root span,
// parent 0). layer names the metric it counts toward; name is what a
// trace viewer shows (the op's name, on a root). Times are offsets from
// the tracer's start.
type span struct {
	name, layer string
	start, end  time.Duration
	id, parent  int64
	op          int64
}

// tracer keeps every span of a traced run in memory; they are turned
// into per-layer metrics, and optionally a Chrome trace file, at exit.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// opTrace is one op's handle on the tracer: layer spans recorded
// through it become children of the op's root span.
type opTrace struct {
	tr       *tracer
	op, root int64
}

// timed runs f as a span named after the layer call it wraps. With
// tracing off (x.trace == nil) it is a plain call.
func timed[T any](x *opCtx, name string, f func() (T, error)) (T, error) {
	if x.trace == nil {
		return f()
	}
	t := x.trace
	start := time.Now()
	v, err := f()
	t.tr.add(span{name: name, layer: name, start: start.Sub(t.tr.t0), end: time.Since(t.tr.t0),
		id: t.tr.nextID.Add(1), parent: t.root, op: t.op})
	return v, err
}

// selfTimes sums, per layer, each span's duration minus the time its
// children cover (children of one op run one after another). Root spans
// count toward rootOp or rootCheck; total is their summed duration, the
// traced time the shares are taken of.
func (t *tracer) selfTimes() (self map[string]time.Duration, total time.Duration) {
	child := map[int64]time.Duration{}
	for _, s := range t.spans {
		if s.parent != 0 {
			child[s.parent] += s.end - s.start
		}
	}
	self = map[string]time.Duration{}
	for _, s := range t.spans {
		d := s.end - s.start
		self[s.layer] += d - child[s.id]
		if s.parent == 0 {
			total += d
		}
	}
	return self, total
}

// writeChrome writes the spans as Chrome trace-event JSON (open it in
// Perfetto or about:tracing). Each op's spans go on the lane of the
// worker that ran it, rebuilt by packing ops greedily into the fewest
// lanes that do not overlap.
func (t *tracer) writeChrome(path string) error {
	type ev struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	// An op's extent runs from its root's start to its check's end.
	type extent struct{ start, end time.Duration }
	ext := map[int64]extent{}
	for _, s := range t.spans {
		if s.parent != 0 {
			continue
		}
		e, ok := ext[s.op]
		if !ok || s.start < e.start {
			e.start = s.start
		}
		if s.end > e.end {
			e.end = s.end
		}
		ext[s.op] = e
	}
	ops := make([]int64, 0, len(ext))
	for op := range ext {
		ops = append(ops, op)
	}
	sort.Slice(ops, func(i, j int) bool { return ext[ops[i]].start < ext[ops[j]].start })
	lane := map[int64]int{}
	var free []time.Duration // end of the last op on each lane
	for _, op := range ops {
		e, l := ext[op], -1
		for i, end := range free {
			if end <= e.start {
				l = i
				break
			}
		}
		if l < 0 {
			l = len(free)
			free = append(free, 0)
		}
		free[l], lane[op] = e.end, l
	}

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	evs := make([]ev, 0, len(t.spans))
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	for _, s := range t.spans {
		evs = append(evs, ev{Name: s.name, Cat: s.layer, Ph: "X", Ts: us(s.start), Dur: us(s.end - s.start),
			Pid: 1, Tid: lane[s.op], Args: map[string]any{"op": s.op, "id": s.id, "parent": s.parent}})
	}
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"}); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
