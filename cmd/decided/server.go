package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/family"
	"repro/internal/graph"
	"repro/internal/store"
)

// config is the resolved server configuration. Field validation happens in
// parseFlags (main.go); newServer assumes a valid config.
type config struct {
	addr string
	// storePath is the verdict log; empty disables persistence.
	storePath string
	// cacheBytes bounds the resident verdict cache (NewBoundedViewCache).
	cacheBytes int64
	// maxInflight is the admission-control semaphore width: evaluations past
	// it are shed with 429 + Retry-After instead of queueing unboundedly.
	maxInflight int
	// defaultTimeout/maxTimeout bound per-request evaluation deadlines: the
	// default applies when the request names none, the max caps what a
	// request may ask for.
	defaultTimeout time.Duration
	maxTimeout     time.Duration
	// drainTimeout bounds graceful shutdown: in-flight evaluations get this
	// long to finish before the listener is torn down.
	drainTimeout time.Duration
	// queueDepth/syncEvery pass through to store.Options.
	queueDepth int
	syncEvery  bool
	// maxNodes caps instance sizes admitted for evaluation.
	maxNodes int

	// testDeciders lets tests register extra deterministic deciders (e.g. a
	// deliberately slow one) without widening the public vocabulary.
	testDeciders map[string]engine.Decider
}

// resident is one cached (graph, labels, decider) binding: built on first
// request, then reused for the server's lifetime so repeated evaluations pay
// zero construction cost and share every cached verdict. dec.DecideRand is
// set for a randomized decider, dec.Decide otherwise.
type resident struct {
	l   *graph.Labeled
	dec engine.Decider
}

// server is the decided service: a resident verdict cache, an optional
// persistent store wired behind it, and the HTTP surface.
type server struct {
	cfg   config
	cache *engine.ViewCache
	store *store.Store // nil when persistence is off

	sem       chan struct{}
	ready     atomic.Bool
	residents sync.Map // key string → *resident

	served    atomic.Int64 // evaluations answered (eval + trials)
	rejected  atomic.Int64 // requests shed by admission control
	deadlines atomic.Int64 // evaluations cut by their deadline
	evalErrs  atomic.Int64 // evaluations that failed outright

	evalLat   latencyHist // /v1/eval evaluation latency (all outcomes)
	trialsLat latencyHist // /v1/trials sweep latency (all outcomes)

	start time.Time
	mux   *http.ServeMux
}

// newServer opens the store (recovering its log), wires the cache's
// read-through and write-behind hooks to it, and builds the HTTP mux. The
// cache starts empty: a recovered verdict enters it on the first miss that
// asks for it, so start-up time follows the log's size, not the cache's.
// The returned server is not yet ready: callers flip readiness once the
// listener is up.
func newServer(cfg config) (*server, error) {
	s := &server{
		cfg:   cfg,
		cache: engine.NewBoundedViewCache(cfg.cacheBytes),
		sem:   make(chan struct{}, cfg.maxInflight),
		start: time.Now(),
	}
	if cfg.storePath != "" {
		st, err := store.Open(cfg.storePath, store.Options{
			QueueDepth: cfg.queueDepth,
			SyncEvery:  cfg.syncEvery,
		})
		if err != nil {
			return nil, err
		}
		s.store = st
		// Read-through: a canonical miss asks the store before deciding.
		// Get never blocks on I/O, and loaded verdicts never reach the
		// persist hook, so recovery cannot feed back into the log.
		s.cache.SetLoad(func(decider string, horizon int, code []byte) (engine.Verdict, bool) {
			v, ok := st.Get(decider, horizon, code)
			return engine.Verdict(v), ok
		})
		// Write-behind: fresh canonical verdicts enqueue to the store; Put
		// never blocks (bounded queue, drop-on-overflow), which is the
		// contract the eval hot path requires.
		s.cache.SetPersist(func(decider string, horizon int, code []byte, verdict engine.Verdict) {
			st.Put(store.Record{Decider: decider, Horizon: horizon, Code: code, Verdict: bool(verdict)})
		})
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/eval", s.handleEval)
	mux.HandleFunc("/v1/trials", s.handleTrials)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/statsz", s.handleStatsz)
	s.mux = mux
	return s, nil
}

// close flushes and closes the store. Call after the HTTP listener has
// drained so no evaluation races the final flush.
func (s *server) close() error {
	if s.store == nil {
		return nil
	}
	if err := s.store.Flush(); err != nil {
		s.store.Close()
		return err
	}
	return s.store.Close()
}

// httpError writes a plain-text error with the given status.
func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(status)
	fmt.Fprintf(w, format+"\n", args...)
}

// writeJSON writes v as a JSON response.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// admit acquires an admission slot without blocking. On shed it writes the
// 429 itself and returns false.
func (s *server) admit(w http.ResponseWriter) bool {
	select {
	case s.sem <- struct{}{}:
		return true
	default:
		s.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, "server at capacity (%d evaluations in flight)", s.cfg.maxInflight)
		return false
	}
}

// release returns an admission slot.
func (s *server) release() { <-s.sem }

// requestTimeout resolves the evaluation deadline for a request: the
// timeout_ms query parameter when present (capped at maxTimeout), the
// configured default otherwise.
func (s *server) requestTimeout(r *http.Request) (time.Duration, error) {
	raw := r.URL.Query().Get("timeout_ms")
	if raw == "" {
		return s.cfg.defaultTimeout, nil
	}
	ms, err := strconv.Atoi(raw)
	if err != nil || ms <= 0 {
		return 0, fmt.Errorf("timeout_ms must be a positive integer, got %q", raw)
	}
	d := time.Duration(ms) * time.Millisecond
	if d > s.cfg.maxTimeout {
		d = s.cfg.maxTimeout
	}
	return d, nil
}

// residentFor resolves (and memoises) the instance+decider a request names.
func (s *server) residentFor(kind string, n int, deciderName string, seed int64) (*resident, error) {
	key := fmt.Sprintf("%s/%d/%s/%d", kind, n, deciderName, seed)
	if v, ok := s.residents.Load(key); ok {
		return v.(*resident), nil
	}
	g, err := buildServedGraph(kind, n, s.cfg.maxNodes)
	if err != nil {
		return nil, err
	}
	res, err := s.buildResident(g, deciderName, seed)
	if err != nil {
		return nil, err
	}
	actual, _ := s.residents.LoadOrStore(key, res)
	return actual.(*resident), nil
}

// servedKinds is the service's graph vocabulary: the families localsim
// drives, less the random one.
var servedKinds = []string{"cycle", "path", "star", "grid", "tree", "pyramid"}

// buildServedGraph builds a served family instance. The family's range and
// the instance's node count, capped at sizes a shared server should build
// on demand, are checked before anything is built, so a bad or oversized
// request costs no allocation.
func buildServedGraph(kind string, n, maxNodes int) (*graph.Graph, error) {
	if !slices.Contains(servedKinds, kind) {
		return nil, fmt.Errorf("unknown graph kind %q (%s)", kind, strings.Join(servedKinds, " | "))
	}
	if n < 1 {
		return nil, fmt.Errorf("n must be positive, got %d", n)
	}
	nodes, build, err := family.New(kind, n, 0)
	if err != nil {
		return nil, err
	}
	if nodes > maxNodes {
		return nil, fmt.Errorf("instance has %d nodes, over the served cap %d", nodes, maxNodes)
	}
	return build(), nil
}

// buildResident binds a decider name to a labeled instance: a test decider
// when one is registered under the name, else the catalogue's entry.
func (s *server) buildResident(g *graph.Graph, name string, seed int64) (*resident, error) {
	if dec, ok := s.cfg.testDeciders[name]; ok {
		return &resident{l: graph.UniformlyLabeled(g, ""), dec: dec}, nil
	}
	l, dec, err := family.Decider(name, g, seed)
	if err != nil {
		return nil, err
	}
	return &resident{l: l, dec: dec}, nil
}

// evalResponse is the JSON body of /v1/eval.
type evalResponse struct {
	Graph     string  `json:"graph"`
	N         int     `json:"n"`
	Decider   string  `json:"decider"`
	Accepted  bool    `json:"accepted"`
	Evaluated int     `json:"evaluated"`
	DedupHits int     `json:"dedupHits"`
	ElapsedMs float64 `json:"elapsedMs"`
}

// parseCommon extracts the (graph, n, decider, seed) quadruple shared by
// /v1/eval and /v1/trials.
func parseCommon(r *http.Request) (kind string, n int, decider string, seed int64, err error) {
	q := r.URL.Query()
	kind = q.Get("graph")
	if kind == "" {
		kind = "cycle"
	}
	decider = q.Get("decider")
	if decider == "" {
		return "", 0, "", 0, errors.New("missing decider parameter")
	}
	n = 8
	if raw := q.Get("n"); raw != "" {
		if n, err = strconv.Atoi(raw); err != nil {
			return "", 0, "", 0, fmt.Errorf("n must be an integer, got %q", raw)
		}
	}
	seed = 1
	if raw := q.Get("seed"); raw != "" {
		if seed, err = strconv.ParseInt(raw, 10, 64); err != nil {
			return "", 0, "", 0, fmt.Errorf("seed must be an integer, got %q", raw)
		}
	}
	return kind, n, decider, seed, nil
}

// handleEval evaluates a decider once on the named instance, under the
// request's deadline and the server's admission control. A deterministic
// decider's verdicts flow through the resident cache; a randomized one draws
// every node's coins from the request's seed and is never cached.
func (s *server) handleEval(w http.ResponseWriter, r *http.Request) {
	kind, n, deciderName, seed, err := parseCommon(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	timeout, err := s.requestTimeout(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	backend := engine.Scheduler(nil)
	switch b := r.URL.Query().Get("backend"); b {
	case "", "sequential":
	case "sharded":
		backend = engine.Sharded
	default:
		httpError(w, http.StatusBadRequest, "unknown backend %q (sequential | sharded)", b)
		return
	}
	if !s.admit(w) {
		return
	}
	defer s.release()
	res, err := s.residentFor(kind, n, deciderName, seed)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	opts := engine.Options{Scheduler: backend, Seed: seed, Ctx: ctx, EarlyExit: true}
	// nocache=1 is a diagnostic: evaluate without the resident cache (and
	// without feeding it), so operators can measure the cold path and tests
	// can exercise full-length evaluations.
	if r.URL.Query().Get("nocache") != "1" {
		opts.Cache = s.cache // implies dedup; the engine ignores it for randomized deciders
	}
	begin := time.Now()
	out := engine.EvalOblivious(res.dec, res.l, opts)
	elapsed := time.Since(begin)
	s.evalLat.observe(elapsed)

	switch {
	case out.Err == nil:
		s.served.Add(1)
		writeJSON(w, evalResponse{
			Graph: kind, N: res.l.N(), Decider: deciderName,
			Accepted: out.Accepted, Evaluated: out.Stats.Evaluated,
			DedupHits: out.Stats.DedupHits, ElapsedMs: float64(elapsed.Microseconds()) / 1000,
		})
	case errors.Is(out.Err, context.DeadlineExceeded):
		s.deadlines.Add(1)
		httpError(w, http.StatusGatewayTimeout, "evaluation exceeded its %v deadline", timeout)
	case errors.Is(out.Err, context.Canceled):
		// Client went away; nothing useful to write, but record it.
		s.deadlines.Add(1)
		httpError(w, http.StatusServiceUnavailable, "evaluation canceled")
	default:
		s.evalErrs.Add(1)
		httpError(w, http.StatusInternalServerError, "evaluation failed: %v", out.Err)
	}
}

// trialsResponse is the JSON body of /v1/trials.
type trialsResponse struct {
	Graph     string  `json:"graph"`
	N         int     `json:"n"`
	Decider   string  `json:"decider"`
	Requested int     `json:"requested"`
	Committed int     `json:"committed"`
	Accepted  int     `json:"accepted"`
	Estimate  float64 `json:"estimate"`
	CILow     float64 `json:"ciLow"`
	CIHigh    float64 `json:"ciHigh"`
	ElapsedMs float64 `json:"elapsedMs"`
}

// handleTrials runs a Monte Carlo acceptance sweep of a randomized decider
// under the request's deadline. A deadline that cuts the sweep mid-way still
// returns the committed prefix — partial statistics, honestly flagged with
// partial=true semantics via committed < requested.
func (s *server) handleTrials(w http.ResponseWriter, r *http.Request) {
	kind, n, deciderName, seed, err := parseCommon(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	timeout, err := s.requestTimeout(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	trials := 100
	if raw := r.URL.Query().Get("trials"); raw != "" {
		if trials, err = strconv.Atoi(raw); err != nil || trials < 1 {
			httpError(w, http.StatusBadRequest, "trials must be a positive integer, got %q", raw)
			return
		}
	}
	confidence := 0.95
	if raw := r.URL.Query().Get("confidence"); raw != "" {
		if confidence, err = strconv.ParseFloat(raw, 64); err != nil || confidence <= 0 || confidence >= 1 || math.IsNaN(confidence) {
			httpError(w, http.StatusBadRequest, "confidence must be in (0, 1), got %q", raw)
			return
		}
	}
	if !s.admit(w) {
		return
	}
	defer s.release()
	res, err := s.residentFor(kind, n, deciderName, seed)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if res.dec.DecideRand == nil {
		httpError(w, http.StatusBadRequest, "decider %q is deterministic; /v1/trials needs a randomized decider (coin)", deciderName)
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	begin := time.Now()
	dec := engine.TrialDecider{Name: res.dec.Name, Horizon: res.dec.Horizon, DecideRand: res.dec.DecideRand}
	stats, terr := engine.EvalTrials(dec, res.l, engine.TrialOptions{
		Trials: trials, Seed: seed, Confidence: confidence, Ctx: ctx,
	})
	elapsed := time.Since(begin)
	s.trialsLat.observe(elapsed)
	if terr != nil && !errors.Is(terr, context.DeadlineExceeded) && !errors.Is(terr, context.Canceled) {
		s.evalErrs.Add(1)
		httpError(w, http.StatusInternalServerError, "trial sweep failed: %v", terr)
		return
	}
	if terr != nil {
		s.deadlines.Add(1)
	}
	s.served.Add(1)
	writeJSON(w, trialsResponse{
		Graph: kind, N: res.l.N(), Decider: deciderName,
		Requested: trials, Committed: stats.Trials, Accepted: stats.Accepted,
		Estimate: stats.Estimate, CILow: stats.CI.Low, CIHigh: stats.CI.High,
		ElapsedMs: float64(elapsed.Microseconds()) / 1000,
	})
}

// handleHealthz reports process liveness: 200 whenever the process can run a
// handler at all.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

// handleReadyz reports serving readiness: 200 once the store is recovered
// and the listener is up, 503 before that and again once shutdown begins —
// the signal a load balancer uses to drain this instance. Recovery is the
// whole start-up cost: recovered verdicts are read through on demand.
func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.ready.Load() {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ready")
		return
	}
	httpError(w, http.StatusServiceUnavailable, "not ready")
}

// statszResponse is the JSON body of /statsz. Cache carries the cache's
// counters (engine.CacheStats: Loaded counts verdicts read through from the
// store) and Store the store's (store.Stats: Oversized counts verdicts
// refused as unrecoverable), each documented on its field.
type statszResponse struct {
	UptimeSeconds float64           `json:"uptimeSeconds"`
	Goroutines    int               `json:"goroutines"`
	Inflight      int               `json:"inflight"`
	MaxInflight   int               `json:"maxInflight"`
	Served        int64             `json:"served"`
	Rejected      int64             `json:"rejected"`
	Deadlines     int64             `json:"deadlineExceeded"`
	EvalErrors    int64             `json:"evalErrors"`
	Latency       latencyByRoute    `json:"latency"`
	Cache         engine.CacheStats `json:"cache"`
	Store         *store.Stats      `json:"store,omitempty"`
}

// latencyByRoute carries the per-route latency distributions of /statsz.
type latencyByRoute struct {
	Eval   latencySummary `json:"eval"`
	Trials latencySummary `json:"trials"`
}

// handleStatsz exposes the server's counters, the cache's accounting and the
// store's recovery/flush counters as one JSON document.
func (s *server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	resp := statszResponse{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Goroutines:    runtime.NumGoroutine(),
		Inflight:      len(s.sem),
		MaxInflight:   s.cfg.maxInflight,
		Served:        s.served.Load(),
		Rejected:      s.rejected.Load(),
		Deadlines:     s.deadlines.Load(),
		EvalErrors:    s.evalErrs.Load(),
		Latency: latencyByRoute{
			Eval:   s.evalLat.summarize(),
			Trials: s.trialsLat.summarize(),
		},
		Cache: s.cache.Stats(),
	}
	if s.store != nil {
		st := s.store.Stats()
		resp.Store = &st
	}
	writeJSON(w, resp)
}
