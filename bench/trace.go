package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/graph"
)

// span is one timed call the benchmark made into a layer: name, start and
// end (nanoseconds since the run began), the span that caused it, and the
// eval, request or update it belongs to.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Op     int64  `json:"op,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the spans kept in memory; later ones are counted, not kept.
const maxSpans = 1 << 18

// tracer records spans in memory and times decider calls during a traced
// run. A nil *tracer is the untraced run: every method is a no-op.
type tracer struct {
	t0      time.Time
	ids     atomic.Int64
	mu      sync.Mutex
	spans   []span
	dropped int

	// decideNs and decideCalls accumulate over every wrapped Decide call.
	decideNs    atomic.Int64
	decideCalls atomic.Int64
	// clockNs is the measured cost of one clock-read pair, subtracted from
	// per-call timings so they do not count the timer itself.
	clockNs float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), clockNs: clockCost()}
}

// clockCost measures what reading the monotonic clock twice costs.
func clockCost() float64 {
	const n = 200_000
	begin := time.Now()
	var sink time.Duration
	for i := 0; i < n; i++ {
		t := time.Now()
		sink += time.Since(t)
	}
	_ = sink
	return float64(time.Since(begin).Nanoseconds()) / n
}

// openSpan is a span that has started and not yet ended.
type openSpan struct {
	t *tracer
	s span
}

// begin starts a span under parent (0 for none), attributed to op.
func (t *tracer) begin(name string, parent, op int64) openSpan {
	if t == nil {
		return openSpan{}
	}
	return openSpan{t: t, s: span{
		Name: name, ID: t.ids.Add(1), Parent: parent, Op: op,
		Start: time.Since(t.t0).Nanoseconds(),
	}}
}

// id is the span's identifier, for children to name as their parent.
func (o openSpan) id() int64 { return o.s.ID }

// end closes the span and keeps it.
func (o openSpan) end() {
	if o.t == nil {
		return
	}
	o.s.End = time.Since(o.t.t0).Nanoseconds()
	o.t.mu.Lock()
	if len(o.t.spans) < maxSpans {
		o.t.spans = append(o.t.spans, o.s)
	} else {
		o.t.dropped++
	}
	o.t.mu.Unlock()
}

// wrap returns d with its Decide call timed. The name and horizon are kept,
// so the wrapped decider shares cache entries with the plain one.
func (t *tracer) wrap(d engine.Decider) engine.Decider {
	if t == nil || d.Decide == nil {
		return d
	}
	inner := d.Decide
	d.Decide = func(v *graph.View) engine.Verdict {
		begin := time.Now()
		verdict := inner(v)
		t.decideNs.Add(time.Since(begin).Nanoseconds())
		t.decideCalls.Add(1)
		return verdict
	}
	return d
}

// decideTotals returns the decide time, net of timer cost, and call count so
// far; zeros for the untraced run.
func (t *tracer) decideTotals() (ns float64, calls int64) {
	if t == nil {
		return 0, 0
	}
	calls = t.decideCalls.Load()
	ns = float64(t.decideNs.Load()) - t.clockNs*float64(calls)
	return max(ns, 0), calls
}

// writeSpans writes the kept spans as JSON lines to path.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	if t.dropped > 0 {
		enc.Encode(map[string]int{"dropped_spans": t.dropped})
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
