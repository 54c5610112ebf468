package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"sync"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/local"
	"repro/internal/props"
	"repro/internal/store"
	"repro/internal/tree"
)

// serveKind is one request type of the serve mix.
type serveKind struct {
	name    string
	percent int
	// query is the request path and query without the seed parameter.
	query  string
	seeded bool
	trials bool
	// host and dec rebuild the served instance and decider for the reference
	// answer and the graph-layer replay; cached is false for nocache=1.
	host   func(seed int64) *graph.Labeled
	dec    engine.Decider
	cached bool
}

const (
	// serveTrials is the trial count of the mix's /v1/trials requests.
	serveTrials = 200
	// fillerDecider names the records the verdict log is filled with: no
	// request asks for it, so they cost recovery and replay but are never
	// served.
	fillerDecider = "bench-filler"
)

var (
	// coin mirrors decided's randomized decider, which rejects with
	// probability 1/64 per node.
	coin = local.RandomizedFunc("coin(1/64)", 0, func(_ *graph.View, rng *rand.Rand) local.Verdict {
		return local.Verdict(rng.Intn(64) != 0)
	})
	misDecider = local.EngineObliviousDecider(props.MISVerifier())
)

// serveKinds is the request mix, with its instances built exactly as decided
// builds them.
func serveKinds() []serveKind {
	uniform := func(g func() *graph.Graph) func(int64) *graph.Labeled {
		return func(int64) *graph.Labeled { return graph.UniformlyLabeled(g(), "") }
	}
	return []serveKind{
		{name: "cycle-degree2", percent: 40, query: "/v1/eval?graph=cycle&n=4096&decider=degree2",
			host: uniform(func() *graph.Graph { return graph.Cycle(4096) }), dec: degree2, cached: true},
		{name: "pyramid-trianglefree", percent: 15, query: "/v1/eval?graph=pyramid&n=6&decider=triangle-free",
			host: uniform(func() *graph.Graph { return tree.NewPyramid(6).G }), dec: triangleFree, cached: true},
		{name: "grid-3col", percent: 15, query: "/v1/eval?graph=grid&n=256&decider=3col", seeded: true,
			host: func(seed int64) *graph.Labeled {
				return graph.RandomLabels(graph.Grid(256, 4), []graph.Label{"0", "1", "2"}, seed)
			}, dec: threeCol, cached: true},
		{name: "tree-mis", percent: 15, query: "/v1/eval?graph=tree&n=12&decider=mis", seeded: true,
			host: func(seed int64) *graph.Labeled {
				return graph.RandomLabels(graph.CompleteBinaryTree(12), []graph.Label{"0", "1"}, seed)
			}, dec: misDecider, cached: true},
		{name: "cycle-nocache", percent: 10, query: "/v1/eval?graph=cycle&n=1024&decider=degree2&nocache=1",
			host: uniform(func() *graph.Graph { return graph.Cycle(1024) }), dec: degree2},
		{name: "coin-trials", percent: 5, query: "/v1/trials?graph=cycle&n=256&decider=coin&trials=" + strconv.Itoa(serveTrials), seeded: true, trials: true,
			host: uniform(func() *graph.Graph { return graph.Cycle(256) })},
	}
}

// serveSizes are the serve workload's sizes: records in the verdict log and
// the range [1, seeds] request seeds are drawn from.
func serveSizes(tiny bool) (records int, seeds int64) {
	if tiny {
		return 2_000, 2
	}
	return 1_000_000, 16
}

// serveRequest is one request of the seeded sequence.
type serveRequest struct {
	kind int
	seed int64
}

// requestStream draws the request sequence of one client. Requests come in
// shuffled decks of serveDeck requests that each hold exactly the mix's
// shares, so the mix of any window is the nominal one and run-to-run
// differences in the latency distribution are not differences in the mix.
// in hashes the requests drawn.
type requestStream struct {
	rng   *rand.Rand
	in    inputHash
	kinds []serveKind
	seeds int64
	deck  []serveRequest
}

// serveDeck is the deck size: the percentages are multiples of 100/serveDeck.
const serveDeck = 20

func (s *requestStream) next() serveRequest {
	if len(s.deck) == 0 {
		for i, k := range s.kinds {
			for j := 0; j < k.percent*serveDeck/100; j++ {
				req := serveRequest{kind: i, seed: 1}
				if k.seeded {
					req.seed = 1 + s.rng.Int63n(s.seeds)
				}
				s.deck = append(s.deck, req)
			}
		}
		s.rng.Shuffle(len(s.deck), func(i, j int) { s.deck[i], s.deck[j] = s.deck[j], s.deck[i] })
	}
	req := s.deck[len(s.deck)-1]
	s.deck = s.deck[:len(s.deck)-1]
	s.in.ints(int64(req.kind), req.seed)
	return req
}

func (req serveRequest) path(kinds []serveKind) string {
	return kinds[req.kind].query + "&seed=" + strconv.FormatInt(req.seed, 10)
}

// serveClients is the number of closed-loop clients: one per core of the
// machine the sizing was done on.
const serveClients = 2

// serveSlice is the wall time the clients run between two timings of the
// reference loop; a session under way when it ends is finished first.
const serveSlice = 200 * time.Millisecond

func clientStream(seed int64, client int, tiny bool) *requestStream {
	_, seeds := serveSizes(tiny)
	return &requestStream{rng: newRand(seed, fmt.Sprint("serve-client-", client)), in: newInputHash(), kinds: serveKinds(), seeds: seeds}
}

// fillerRecord is the i-th record of the verdict log: a unique code (the
// index, then seeded random bytes) with a random verdict.
func fillerRecord(rng *rand.Rand, i int) store.Record {
	code := make([]byte, 24)
	binary.LittleEndian.PutUint64(code, uint64(i))
	rng.Read(code[8:])
	return store.Record{Decider: fillerDecider, Horizon: 1, Code: code, Verdict: rng.Intn(2) == 0}
}

// fillStore writes the verdict log through the store's own API, adding each
// record to the input hash in.
func fillStore(path string, records int, seed int64, in *inputHash) error {
	st, err := store.Open(path, store.Options{QueueDepth: 1 << 14})
	if err != nil {
		return err
	}
	rng := newRand(seed, "serve-store")
	for i := 0; i < records; i++ {
		r := fillerRecord(rng, i)
		in.bytes(r.Code)
		if r.Verdict {
			in.ints(1)
		}
		// Put drops a record when the write-behind queue is full; drain it and
		// retry. Codes are unique, so a refused Put is never a duplicate.
		for !st.Put(r) {
			if err := st.Flush(); err != nil {
				st.Close()
				return err
			}
		}
	}
	if err := st.Flush(); err != nil {
		st.Close()
		return err
	}
	return st.Close()
}

// serveRef is the expected answer to one (kind, seed) request.
type serveRef struct {
	nodes    int
	accepted bool // eval: the aggregate verdict
	trialsOK int  // trials: accepted trials
}

// serveReferences computes the expected answer to every request the mix can
// send, and lists those requests in a fixed order.
func serveReferences(kinds []serveKind, seeds int64) (map[serveRequest]serveRef, []serveRequest, error) {
	refs := map[serveRequest]serveRef{}
	var order []serveRequest
	for i, k := range kinds {
		last := int64(1)
		if k.seeded {
			last = seeds
		}
		for seed := int64(1); seed <= last; seed++ {
			l := k.host(seed)
			ref := serveRef{nodes: l.N()}
			if k.trials {
				st, err := local.AcceptanceTrials(coin, l, engine.TrialOptions{Trials: serveTrials, Seed: seed, Confidence: 0.95})
				if err != nil {
					return nil, nil, err
				}
				ref.trialsOK = st.Accepted
			} else {
				out := engine.EvalOblivious(k.dec, l, engine.Options{Scheduler: engine.Sequential})
				if out.Err != nil {
					return nil, nil, out.Err
				}
				ref.accepted = out.Accepted
			}
			req := serveRequest{kind: i, seed: seed}
			refs[req] = ref
			order = append(order, req)
		}
	}
	return refs, order, nil
}

// daemon is a running decided process.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	drained chan struct{} // closed once the process's output reaches EOF
	stderr  bytes.Buffer
}

var listenLine = regexp.MustCompile(`listening on (\S+)`)

// startDaemon starts decided on the verdict log and waits until /readyz
// answers 200. It returns the time from process start to ready.
func startDaemon(bin, logPath string, client *http.Client) (*daemon, time.Duration, error) {
	d := &daemon{drained: make(chan struct{})}
	d.cmd = exec.Command(bin, "-addr", "127.0.0.1:0", "-store", logPath)
	d.cmd.Stderr = &d.stderr
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	begin := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start decided: %w", err)
	}
	out := bufio.NewReader(stdout)
	first := make(chan string, 1)
	go func() {
		line, _ := out.ReadString('\n')
		first <- line
		io.Copy(io.Discard, out)
		close(d.drained)
	}()
	var line string
	select {
	case line = <-first:
	case <-time.After(2 * time.Minute):
		d.kill()
		return nil, 0, errors.New("decided did not start listening within 2 minutes")
	}
	m := listenLine.FindStringSubmatch(line)
	if m == nil {
		d.kill()
		return nil, 0, fmt.Errorf("decided did not start: %q %s", line, d.stderr.String())
	}
	d.base = "http://" + m[1]
	for {
		resp, err := client.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(begin), nil
			}
		}
		if time.Since(begin) > 2*time.Minute {
			d.kill()
			return nil, 0, errors.New("decided not ready within 2 minutes")
		}
		time.Sleep(time.Millisecond)
	}
}

// kill ends the process at once and waits for it.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.drained
	d.cmd.Wait()
}

// stop asks decided to drain and exit, and waits for it; after 30 seconds it
// is killed.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return err
	}
	select {
	case <-d.drained:
	case <-time.After(30 * time.Second):
		d.kill()
		return errors.New("decided did not drain within 30 seconds")
	}
	if err := d.cmd.Wait(); err != nil {
		return fmt.Errorf("decided exit: %w: %s", err, d.stderr.String())
	}
	return nil
}

// statsz is the part of decided's /statsz document the benchmark reads.
type statsz struct {
	Rejected  int64 `json:"rejected"`
	Deadlines int64 `json:"deadlineExceeded"`
	Latency   struct {
		Eval   routeLatency `json:"eval"`
		Trials routeLatency `json:"trials"`
	} `json:"latency"`
	Cache engine.CacheStats `json:"cache"`
	Store *store.Stats      `json:"store"`
}

type routeLatency struct {
	Count  int64   `json:"count"`
	MeanMs float64 `json:"meanMs"`
}

// sumMs is the route's total server-side time.
func (l routeLatency) sumMs() float64 { return l.MeanMs * float64(l.Count) }

func getStatsz(client *http.Client, base string) (statsz, error) {
	var st statsz
	resp, err := client.Get(base + "/statsz")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/statsz: %s", resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// serveAnswer is the part of an eval or trials response the check reads.
type serveAnswer struct {
	N         int             `json:"n"`
	Accepted  json.RawMessage `json:"accepted"`
	Committed int             `json:"committed"`
}

// ask sends one request and reports its latency and whether the answer was
// the expected one. A non-200 answer is a failure.
func ask(client *http.Client, base string, kinds []serveKind, req serveRequest, ref serveRef) (time.Duration, bool) {
	begin := time.Now()
	resp, err := client.Get(base + req.path(kinds))
	if err != nil {
		return time.Since(begin), false
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(begin)
	if err != nil || resp.StatusCode != http.StatusOK {
		return d, false
	}
	var a serveAnswer
	if json.Unmarshal(body, &a) != nil || a.N != ref.nodes {
		return d, false
	}
	if kinds[req.kind].trials {
		n, err := strconv.Atoi(string(a.Accepted))
		return d, err == nil && a.Committed == serveTrials && n == ref.trialsOK
	}
	return d, string(a.Accepted) == strconv.FormatBool(ref.accepted)
}

// runServe: decided restarted from a filled verdict log, then closed-loop
// clients on the seeded request mix. One session of serveDeck requests is one
// answer; each request is one unit of work. The window is wall time, in
// slices of serveSlice. (Single requests of the mix range
// from 0.1 to 3 ms, and the median request falls between those classes, so a
// per-request median jumps from run to run; the per-request percentiles are
// reported by the traced run.)
func runServe(e *env) error {
	dir, err := os.MkdirTemp(e.workdir, "serve-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	logPath := filepath.Join(dir, "verdicts.log")
	records, seeds := serveSizes(e.tiny)
	if err := fillStore(logPath, records, e.seed, &e.in); err != nil {
		return fmt.Errorf("fill verdict log: %w", err)
	}
	recoverS := 0.0
	if e.traced {
		// The store layer alone: recovery of the same log, in this process.
		begin := time.Now()
		st, err := store.Open(logPath, store.Options{})
		if err != nil {
			return err
		}
		recoverS = time.Since(begin).Seconds()
		if err := st.Close(); err != nil {
			return err
		}
	}

	client := &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: serveClients, DisableCompression: true},
		Timeout:   time.Minute,
	}
	defer client.CloseIdleConnections()
	// Set-up is a warm restart: process start, log recovery and cache
	// replay, until /readyz answers. Each repetition stops the previous
	// daemon; the last one serves the window.
	var ready []float64
	d, err := setup(e, func() (*daemon, error) {
		d, took, err := startDaemon(e.decided, logPath, client)
		if err == nil {
			ready = append(ready, took.Seconds())
		}
		return d, err
	}, func(d *daemon) {
		if err := d.stop(); err != nil {
			fmt.Fprintln(os.Stderr, "bench: stopping decided between set-ups:", err)
		}
	})
	if err != nil {
		return err
	}
	stopped := false
	defer func() {
		if !stopped {
			d.kill()
		}
	}()

	kinds := serveKinds()
	refs, distinct, err := serveReferences(kinds, seeds)
	if err != nil {
		return err
	}
	afterReplay, err := getStatsz(client, d.base)
	if err != nil {
		return err
	}
	// decided builds an instance on its first request; send every distinct
	// request once, checked, before timing, so the window measures serving
	// rather than instance construction.
	for _, req := range distinct {
		_, ok := ask(client, d.base, kinds, req, refs[req])
		e.rep.check(ok)
	}

	var (
		before, after statsz
		// reqMs and evalMs are the traced half's request latencies, all and
		// /v1/eval only.
		reqMs, evalMs []float64
		streams       []*requestStream
	)
	for c := 0; c < serveClients; c++ {
		streams = append(streams, clientStream(e.seed, c, e.tiny))
	}
	err = e.measure(func(w *window) error {
		if w.tr != nil {
			if before, err = getStatsz(client, d.base); err != nil {
				return err
			}
		}
		// clientLog is what one client did over the window.
		type clientLog struct {
			sessions, lat, evals []float64
			failed               []bool
		}
		logs := make([]clientLog, serveClients)
		// session sends one deck: serveDeck requests in the mix's exact
		// shares.
		session := func(s *requestStream, l *clientLog) {
			sp := w.tr.begin("session", 0, 0)
			sessionMs := 0.0
			for i := 0; i < serveDeck; i++ {
				req := s.next()
				rs := w.tr.begin("http.GET/"+kinds[req.kind].name, sp.id(), sp.id())
				took, ok := ask(client, d.base, kinds, req, refs[req])
				rs.end()
				l.failed = append(l.failed, !ok)
				ms := float64(took.Nanoseconds()) / 1e6
				sessionMs += ms
				l.lat = append(l.lat, ms)
				if !kinds[req.kind].trials {
					l.evals = append(l.evals, ms)
				}
			}
			sp.end()
			l.sessions = append(l.sessions, sessionMs)
		}
		// The window runs in slices of whole sessions; between slices, while
		// decided is idle, the reference loop is timed.
		for {
			w.calibrate()
			begin := time.Now()
			end := begin.Add(min(serveSlice, w.budget-w.busy))
			var wg sync.WaitGroup
			for c := range logs {
				wg.Add(1)
				go func(s *requestStream, l *clientLog) {
					defer wg.Done()
					for (w.ops > 0 && len(l.sessions) < w.ops) || (w.ops == 0 && time.Now().Before(end)) {
						session(s, l)
					}
				}(streams[c], &logs[c])
			}
			wg.Wait()
			w.busy += time.Since(begin)
			if w.ops > 0 || w.busy >= w.budget {
				break
			}
		}
		for _, l := range logs {
			for _, f := range l.failed {
				e.rep.check(!f)
			}
			w.work += float64(len(l.failed))
			w.lat = append(w.lat, l.sessions...)
			if w.tr != nil {
				reqMs = append(reqMs, l.lat...)
				evalMs = append(evalMs, l.evals...)
			}
		}
		if w.tr != nil {
			if after, err = getStatsz(client, d.base); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, s := range streams {
		e.in.ints(int64(s.in))
	}
	rss, rssErr := peakRSSMB(d.cmd.Process.Pid)
	stopped = true
	if err := d.stop(); err != nil {
		return err
	}
	if rssErr != nil {
		return rssErr
	}
	e.rep.set("rss_peak_mb", rss, 1)
	if !e.traced {
		return nil
	}

	r := e.rep
	r.set("store.recover_s", recoverS, 1)
	r.set("store.replay_s", max(median(ready)-recoverS, 0), len(ready))
	r.set("store.replay_evictions", float64(afterReplay.Cache.Evictions), 1)
	if before.Store != nil && after.Store != nil {
		r.set("store.appended", float64(after.Store.Appended-before.Store.Appended), 1)
		r.set("store.queue_drops", float64(after.Store.QueueDrops-before.Store.QueueDrops), 1)
	}
	evalN := after.Latency.Eval.Count - before.Latency.Eval.Count
	trialsN := after.Latency.Trials.Count - before.Latency.Trials.Count
	serverEval := 0.0
	if evalN > 0 {
		serverEval = (after.Latency.Eval.sumMs() - before.Latency.Eval.sumMs()) / float64(evalN)
		r.set("decided.server_eval_mean_ms", serverEval, int(evalN))
	}
	if trialsN > 0 {
		r.set("decided.server_trials_mean_ms", (after.Latency.Trials.sumMs()-before.Latency.Trials.sumMs())/float64(trialsN), int(trialsN))
	}
	if len(evalMs) > 0 && evalN > 0 {
		mean := 0.0
		for _, ms := range evalMs {
			mean += ms
		}
		mean /= float64(len(evalMs))
		r.set("decided.http_overhead_ms", mean-serverEval, len(evalMs))
	}
	r.set("decided.client_p50_ms", quantile(reqMs, 0.50), len(reqMs))
	r.set("decided.client_p99_ms", quantile(reqMs, 0.99), len(reqMs))
	r.set("decided.rejected_429", float64(after.Rejected-before.Rejected), 1)
	r.set("decided.deadline_exceeded", float64(after.Deadlines-before.Deadlines), 1)
	var cache cacheDelta
	cache.add(before.Cache, after.Cache)
	cache.report(r)

	var costs []viewCost
	for _, k := range kinds {
		if k.trials {
			continue
		}
		costs = append(costs, replayHost(k.host(1), k.dec.Horizon, k.cached, e.tr.clockNs))
	}
	reportGraphLayer(r, costs)
	return nil
}
