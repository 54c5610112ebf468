package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"time"

	"repro/internal/engine"
	"repro/internal/graph"
)

// workload is one set of inputs the benchmark runs; BENCHMARK.json gives the
// reason for each.
type workload struct {
	name string
	// run sets up, checks and measures the workload, filling e.rep.
	run func(e *env) error
}

// workloads lists every workload in the order a full run executes them.
func workloads() []workload {
	return []workload{
		{"repro", runRepro},
		{"sweep_hit", runSweepHit},
		{"sweep_miss", runSweepMiss},
		{"mp", runMP},
		{"serve", runServe},
		{"dynamic", runDynamic},
	}
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// env is one workload run in progress.
type env struct {
	seed   int64
	window time.Duration
	// ops, when positive, replaces the timed window by a fixed number of
	// answers per window (tests).
	ops     int
	tiny    bool
	traced  bool
	tr      *tracer
	decided string
	workdir string
	rep     *report
	// in hashes every input the run derived from its seed, as it was used.
	in inputHash

	setupTimes []float64 // seconds per set-up
	graphBuild []float64 // seconds spent building graphs, per set-up
	// resetup, when set, times one more batch of set-ups; the untraced
	// window calls it between answers.
	resetup func() error
}

func newEnv(seed int64) *env {
	return &env{seed: seed, rep: newReport(), in: newInputHash()}
}

// runWorkload runs one workload in this process and prints its result line.
func runWorkload(stdout io.Writer, o options) error {
	w, err := findWorkload(o.workload)
	if err != nil {
		return err
	}
	e := newEnv(o.seed)
	e.window = time.Duration(o.seconds * float64(time.Second))
	e.traced, e.decided, e.workdir = o.trace, o.decided, o.workdir
	if o.trace {
		e.tr = newTracer()
	}
	if err := e.execute(w); err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	if o.spans != "" && e.tr != nil {
		if err := os.MkdirAll(o.spans, 0o755); err != nil {
			return err
		}
		path := filepath.Join(o.spans, w.name+"-seed"+strconv.FormatInt(o.seed, 10)+".jsonl")
		if err := e.tr.writeSpans(path); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
	}
	return e.rep.write(stdout, o.trace)
}

// execute runs the workload and adds what every workload reports.
func (e *env) execute(w workload) error {
	if err := w.run(e); err != nil {
		return err
	}
	e.rep.set("setup_s", median(e.setupTimes), len(e.setupTimes))
	if len(e.graphBuild) > 0 {
		e.rep.set("graph.build_s", median(e.graphBuild), len(e.graphBuild))
	}
	if _, ok := e.rep.values["rss_peak_mb"]; !ok {
		rss, err := peakRSSMB(0)
		if err != nil {
			return err
		}
		e.rep.set("rss_peak_mb", rss, 1)
	}
	return nil
}

// Set-up is timed many times and reported as the median. On a machine
// shared with other tenants, memory-bound code slows down for seconds at a
// time, so set-ups bunched before the window would often all land in one
// such stretch. They are spread over the run instead: setupMinReps before
// the window and until setupMinTime has passed, then, while an untraced
// window runs, a batch of setupBatch every setupEvery. A state holding a
// child process is built setupChildReps times before the window only.
const (
	setupMinReps   = 3
	setupMinTime   = 200 * time.Millisecond
	setupEvery     = 500 * time.Millisecond
	setupBatch     = 20 * time.Millisecond
	setupChildReps = 5
)

// setup times build — everything a user pays before the first timed
// operation — and returns the state of its last run before the window. Each
// build starts from a collected heap, as a user's fresh process does, so the
// garbage of earlier builds is not charged to a later one. A state that needs
// release (a child process) is released before the next build and is not
// rebuilt during the window, where two would be live at once.
func setup[T any](e *env, build func() (T, error), release func(T)) (T, error) {
	once := func() (T, error) {
		runtime.GC()
		begin := time.Now()
		s, err := build()
		if err == nil {
			e.setupTimes = append(e.setupTimes, time.Since(begin).Seconds())
		}
		return s, err
	}
	reps, until := setupMinReps, time.Now().Add(setupMinTime)
	if release != nil {
		reps, until = setupChildReps, time.Now()
	}
	if e.tiny {
		reps, until = 1, time.Now()
	}
	var state T
	for rep := 0; rep < reps || time.Now().Before(until); rep++ {
		if rep > 0 && release != nil {
			release(state)
		}
		var zero T
		state = zero
		s, err := once()
		if err != nil {
			return state, err
		}
		state = s
	}
	if release == nil && !e.tiny {
		e.resetup = func() error {
			for until := time.Now().Add(setupBatch); time.Now().Before(until); {
				if _, err := once(); err != nil {
					return err
				}
			}
			return nil
		}
	}
	return state, nil
}

// timeGraph runs a graph construction and books its time under graph.build_s.
func timeGraph[T any](e *env, build func() T) T {
	begin := time.Now()
	g := build()
	e.graphBuild = append(e.graphBuild, time.Since(begin).Seconds())
	return g
}

// window is one timed window: the answers given, the work they did and the
// time they took, and the reference loop's times between them.
type window struct {
	tr     *tracer
	budget time.Duration
	ops    int
	lat    []float64 // answer latencies, ms
	work   float64
	busy   time.Duration
	ref    []float64 // reference loop times, ms
	// lastRef is when the reference loop was last timed.
	lastRef time.Time
	// resetup and lastSetup interleave set-ups with the answers; err is the
	// first set-up failure.
	resetup   func() error
	lastSetup time.Time
	err       error
}

// calibrate times the reference loop when a sample is due. Workloads call
// it between answers only, outside the measured time.
func (w *window) calibrate() {
	if len(w.ref) == 0 || time.Since(w.lastRef) >= refEvery {
		w.ref = append(w.ref, refLoop())
		w.lastRef = time.Now()
	}
}

// more reports whether the window wants another answer, timing the
// reference loop, and a batch of set-ups, first when they are due.
func (w *window) more() bool {
	w.calibrate()
	if w.ops > 0 {
		return len(w.lat) < w.ops
	}
	if w.resetup != nil && w.err == nil && time.Since(w.lastSetup) >= setupEvery {
		w.err = w.resetup()
		w.lastSetup = time.Now()
	}
	return w.busy < w.budget && w.err == nil
}

// record books one answer: its latency and the work it completed.
func (w *window) record(d time.Duration, work float64) {
	w.lat = append(w.lat, float64(d.Nanoseconds())/1e6)
	w.work += work
	w.busy += d
}

// measure runs the workload's timed window through body and records the
// answer metrics. A traced run gives the first half of the window to an
// untraced pass and the second to a traced one; the per-layer metrics come
// from the traced half, trace.overhead compares the two halves' median
// answer latency in reference loops, and the untraced half gives the
// 99th-percentile latency.
func (e *env) measure(body func(w *window) error) error {
	run := func(w *window) error {
		if err := body(w); err != nil {
			return err
		}
		return w.err
	}
	if !e.traced {
		w := &window{budget: e.window, ops: e.ops, resetup: e.resetup, lastSetup: time.Now()}
		if err := run(w); err != nil {
			return err
		}
		return e.recordWindow(w)
	}
	plain := &window{budget: e.window / 2, ops: e.ops}
	if err := run(plain); err != nil {
		return err
	}
	traced := &window{tr: e.tr, budget: e.window / 2, ops: e.ops}
	if err := run(traced); err != nil {
		return err
	}
	if err := e.recordWindow(traced); err != nil {
		return err
	}
	e.rep.set("trace.overhead", traced.latencyRef()/plain.latencyRef(), len(traced.lat))
	e.rep.set("answer.latency_p99_ms", quantile(plain.lat, 0.99), len(plain.lat))
	return nil
}

// latencyRef is the window's median answer latency in reference loops.
func (w *window) latencyRef() float64 { return median(w.lat) / median(w.ref) }

// recordWindow sets the answer metrics of a window. The end-to-end one is the
// median answer latency over the median reference loop time, which cancels
// much of the machine's drift; the latency in ms and the reference loop's
// time are per-layer metrics (see README.md).
func (e *env) recordWindow(w *window) error {
	if len(w.lat) == 0 || w.busy <= 0 {
		return fmt.Errorf("the timed window completed no operation")
	}
	e.rep.set("latency_p50_ref", w.latencyRef(), len(w.lat))
	e.rep.set("answer.latency_p50_ms", median(w.lat), len(w.lat))
	e.rep.set("answer.latency_p10_ms", quantile(w.lat, 0.10), len(w.lat))
	e.rep.set("answer.work_per_s", w.work/w.busy.Seconds(), len(w.lat))
	e.rep.set("calib.ref_loop_ms", median(w.ref), len(w.ref))
	return nil
}

// subSeed derives an independent seed for one input of a workload.
func subSeed(seed int64, what string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, what)
	return int64(h.Sum64() >> 1)
}

// ab is the two-letter alphabet that makes views pairwise distinct.
var ab = []graph.Label{"a", "b"}

// degLE4 is the benchmark's own decider: as cheap as a decider gets, so the
// engine and graph layers dominate the time it is measured in.
func degLE4(horizon int) engine.Decider {
	return engine.Decider{Name: "deg<=4", Horizon: horizon, Decide: func(view *graph.View) engine.Verdict {
		return engine.Verdict(view.G.Degree(view.Root) <= 4)
	}}
}

// reference is the master oracle: per-node verdicts of the sequential
// scheduler with no cache.
func reference(dec engine.Decider, l *graph.Labeled) ([]engine.Verdict, error) {
	out := engine.EvalOblivious(dec, l, engine.Options{Scheduler: engine.Sequential})
	if out.Err != nil {
		return nil, fmt.Errorf("reference eval of %s: %w", dec.Name, out.Err)
	}
	return out.Verdicts, nil
}

// inputHash is a running FNV-1a hash of the inputs a run derives from its
// seed — graphs, labels, update streams, log records and requests — so a test
// can check that the seed alone determines them.
type inputHash uint64

func newInputHash() inputHash { return 14695981039346656037 }

func (h *inputHash) bytes(b []byte) {
	for _, c := range b {
		*h = (*h ^ inputHash(c)) * 1099511628211
	}
}

func (h *inputHash) ints(xs ...int64) {
	for _, x := range xs {
		for i := 0; i < 64; i += 8 {
			*h = (*h ^ inputHash(byte(x>>i))) * 1099511628211
		}
	}
}

func (h *inputHash) str(s string) {
	h.ints(int64(len(s)))
	h.bytes([]byte(s))
}

// labeled adds a labelled graph: its edges and its labels.
func (h *inputHash) labeled(l *graph.Labeled) {
	h.ints(int64(l.N()))
	for _, e := range l.G.Edges() {
		h.ints(int64(e[0]), int64(e[1]))
	}
	for _, label := range l.Labels {
		h.str(label)
	}
}

// sameVerdicts reports whether an outcome carries exactly the reference
// verdicts.
func sameVerdicts(out engine.Outcome, ref []engine.Verdict) bool {
	return out.Err == nil && slices.Equal(out.Verdicts, ref)
}

// newRand returns the generator for one seeded input stream.
func newRand(seed int64, what string) *rand.Rand {
	return rand.New(rand.NewSource(subSeed(seed, what)))
}
