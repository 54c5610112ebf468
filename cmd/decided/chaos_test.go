package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/store"
)

// chaosServeEnv guards the re-exec child body: when set to the store path,
// the test binary runs a serving-and-requesting loop instead of the suite.
const chaosServeEnv = "DECIDED_CHAOS_SERVE"

// chaosRequestSet is the deterministic request vocabulary both the child
// (writing) and the parent (verifying) iterate. Seeded 3col/mis members keep
// producing fresh labelings — hence fresh canonical views and fresh store
// records — so the write-behind log is still being appended whenever the
// SIGKILL lands.
func chaosRequestSet() []string {
	reqs := []string{
		"/v1/eval?graph=cycle&n=64&decider=degree2",
		"/v1/eval?graph=star&n=9&decider=degree2",
		"/v1/eval?graph=path&n=33&decider=triangle-free",
		"/v1/eval?graph=grid&n=12&decider=triangle-free",
	}
	for seed := 0; seed < 40; seed++ {
		reqs = append(reqs,
			fmt.Sprintf("/v1/eval?graph=cycle&n=97&decider=3col&seed=%d", seed),
			fmt.Sprintf("/v1/eval?graph=cycle&n=51&decider=mis&seed=%d", seed))
	}
	return reqs
}

// TestChaosKillRestartVerify is the end-to-end crash-safety contract:
//
//  1. a child process serves decisions with a sync-every store and a tiny
//     write-behind queue, evaluating the request set in a loop;
//  2. the parent SIGKILLs it mid-stream — mid-write with high probability;
//  3. the parent restarts the service in-process on the recovered store and
//     re-issues every request, comparing each served verdict against a
//     fresh engine evaluation with no cache and no store.
//
// Any corrupt record that survived recovery — or any read-through serving
// mangled bytes — shows up as a verdict mismatch here.
func TestChaosKillRestartVerify(t *testing.T) {
	if path := os.Getenv(chaosServeEnv); path != "" {
		chaosServe(path)
		os.Exit(0)
	}
	if testing.Short() {
		t.Skip("re-exec chaos test skipped in -short")
	}
	bin, err := os.Executable()
	if err != nil {
		t.Fatalf("locating test binary: %v", err)
	}
	storePath := filepath.Join(t.TempDir(), "chaos-verdicts.log")
	cmd := exec.Command(bin, "-test.run", "TestChaosKillRestartVerify")
	cmd.Env = append(os.Environ(), chaosServeEnv+"="+storePath)
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatalf("stdout pipe: %v", err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatalf("start child: %v", err)
	}
	// The child prints one line per completed loop pass; wait until it has
	// served at least one full pass so there are verdicts worth losing, then
	// kill it without warning.
	ready := make(chan struct{})
	go func() {
		buf := make([]byte, 1)
		for {
			if _, err := out.Read(buf); err != nil {
				return
			}
			if buf[0] == '\n' {
				close(ready)
				return
			}
		}
	}()
	select {
	case <-ready:
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatal("child never completed a serving pass")
	}
	time.Sleep(25 * time.Millisecond) // land inside the second pass's writes
	cmd.Process.Kill()
	cmd.Wait()

	// Restart: same store, fresh process (in-process here). Recovery must
	// succeed whatever the kill tore.
	cfg := testConfig()
	cfg.storePath = storePath
	s, err := newServer(cfg)
	if err != nil {
		t.Fatalf("restart after SIGKILL: %v", err)
	}
	s.ready.Store(true)
	ts := httptest.NewServer(s.mux)
	defer func() {
		ts.Close()
		if err := s.close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	st := s.store.Stats()
	t.Logf("recovered %d records, truncated %d bytes, schema-skipped %d",
		st.Recovered, st.TruncatedBytes, st.SkippedSchema)

	// Re-issue every request and check each served verdict against a fresh
	// engine evaluation that bypasses cache and store entirely.
	for _, q := range chaosRequestSet() {
		resp, err := http.Get(ts.URL + q)
		if err != nil {
			t.Fatalf("GET %s: %v", q, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", q, resp.StatusCode, body)
		}
		var got evalResponse
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatalf("GET %s: bad JSON: %v", q, err)
		}
		want := freshVerdict(t, q)
		if got.Accepted != want {
			t.Fatalf("served verdict diverges from fresh engine evaluation for %s: served %v, fresh %v",
				q, got.Accepted, want)
		}
	}
}

// TestChaosRestartReplayIncremental is the dynamic extension of the chaos
// suite: verdicts persisted during a session that mutated its instance must
// replay into a fresh engine.Incremental session after a crash-and-recover,
// leaving the restarted session fully warm — zero fresh decisions for the
// initial full state — and subsequent updates repairing only their dirty
// balls, with verdicts matching a from-scratch ground-truth evaluation.
func TestChaosRestartReplayIncremental(t *testing.T) {
	storePath := filepath.Join(t.TempDir(), "dynamic-verdicts.log")
	srv := &server{cfg: testConfig()}
	g, err := buildServedGraph("cycle", 256, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	res, err := srv.buildResident(g, "degree2", 0)
	if err != nil {
		t.Fatal(err)
	}

	// Session one: decide with a persistent cache, stream edge updates so
	// post-update view shapes reach the log too, then flush and tear the tail
	// (the torn record a SIGKILL mid-append would leave).
	st, err := store.Open(storePath, store.Options{SyncEvery: true})
	if err != nil {
		t.Fatal(err)
	}
	cache := engine.NewViewCache()
	cache.SetPersist(func(decider string, horizon int, code []byte, verdict engine.Verdict) {
		st.Put(store.Record{Decider: decider, Horizon: horizon, Code: code, Verdict: bool(verdict)})
	})
	inc := engine.MustNewIncremental(res.dec, res.l, engine.Options{Cache: cache})
	ops := []engine.EdgeOp{
		{U: 3, V: 100, Add: true},
		{U: 50, V: 51, Add: false},
		{U: 200, V: 10, Add: true},
	}
	for _, op := range ops {
		inc.ApplyEdge(op.U, op.V, op.Add)
	}
	want := append([]engine.Verdict(nil), inc.Verdicts()...)
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(storePath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("torn-mid-append")); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Restart: recover the store (truncating the torn tail), read a fresh
	// cache through from it, and replay the final mutated instance into a
	// new incremental session.
	st2, err := store.Open(storePath, store.Options{})
	if err != nil {
		t.Fatalf("restart after torn append: %v", err)
	}
	defer st2.Close()
	if tr := st2.Stats().TruncatedBytes; tr == 0 {
		t.Fatal("recovery did not truncate the torn tail")
	}
	cache2 := engine.NewViewCache()
	cache2.SetLoad(func(decider string, horizon int, code []byte) (engine.Verdict, bool) {
		v, ok := st2.Get(decider, horizon, code)
		return engine.Verdict(v), ok
	})
	l2 := graph.NewLabeled(res.l.G.Clone(), append([]graph.Label(nil), res.l.Labels...))
	inc2 := engine.MustNewIncremental(res.dec, l2, engine.Options{Cache: cache2})
	if s2 := inc2.Stats(); s2.Evaluated != 0 {
		t.Fatalf("restarted session decided %d views fresh; recovered store should cover them all", s2.Evaluated)
	}
	got := inc2.Verdicts()
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("node %d: replayed verdict %v != pre-crash verdict %v", v, got[v], want[v])
		}
	}

	// The recovered session keeps absorbing dynamics: each update decides at
	// most its dirty ball (cold views only), and stays bit-identical to a
	// cache-free from-scratch evaluation.
	for i, op := range []engine.EdgeOp{
		{U: 3, V: 100, Add: false},
		{U: 7, V: 77, Add: true},
	} {
		before := inc2.Stats().Evaluated
		dirty := inc2.ApplyEdge(op.U, op.V, op.Add)
		if delta := inc2.Stats().Evaluated - before; delta > dirty {
			t.Fatalf("update %d decided %d views for a %d-node dirty set", i, delta, dirty)
		}
		fresh := engine.EvalOblivious(res.dec, l2, engine.Options{})
		if fresh.Err != nil {
			t.Fatal(fresh.Err)
		}
		if fresh.Accepted != inc2.Accepted() {
			t.Fatalf("update %d: session accepted=%v, fresh engine %v", i, inc2.Accepted(), fresh.Accepted)
		}
		for v, vd := range fresh.Verdicts {
			if inc2.Verdict(v) != vd {
				t.Fatalf("update %d: node %d session verdict %v != fresh %v", i, v, inc2.Verdict(v), vd)
			}
		}
	}
}

// restartRequests is the restart test's request set. Instances that accept
// are decided at every node, so every one of their views reaches the log;
// the rejecting ones stop at their first No, but stay under
// shardedMinNodes, so the sharded scheduler runs them inline in the same
// order and asks for the same views.
var restartRequests = []string{
	"/v1/eval?graph=cycle&n=256&decider=degree2",
	"/v1/eval?graph=grid&n=12&decider=triangle-free",
	"/v1/eval?graph=path&n=100&decider=triangle-free",
	"/v1/eval?graph=tree&n=7&decider=triangle-free",
	"/v1/eval?graph=star&n=9&decider=degree2",
	"/v1/eval?graph=cycle&n=33&decider=3col&seed=1",
	"/v1/eval?graph=cycle&n=51&decider=mis&seed=2",
}

// evalJSON issues one /v1/eval request and decodes its answer; it reports
// failures as errors so goroutines other than the test's can call it.
func evalJSON(url string) (evalResponse, error) {
	var got evalResponse
	resp, err := http.Get(url)
	if err != nil {
		return got, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return got, err
	}
	if resp.StatusCode != http.StatusOK {
		return got, fmt.Errorf("status %d: %s", resp.StatusCode, body)
	}
	return got, json.Unmarshal(body, &got)
}

// TestRestartServesWithoutDeciding: a server restarted on a log answers
// every request the previous process answered without running a decider.
// Right after newServer its cache is empty — nothing is replayed — and the
// recovered verdicts are read through from the store on the first miss.
// Each restart sends every request at once, so concurrent loads run
// against the store under -race.
func TestRestartServesWithoutDeciding(t *testing.T) {
	cfg := testConfig()
	cfg.storePath = filepath.Join(t.TempDir(), "verdicts.log")
	cfg.queueDepth = 4096

	// Server A decides every request and persists the verdicts on close.
	a, err := newServer(cfg)
	if err != nil {
		t.Fatalf("server A: %v", err)
	}
	tsA := httptest.NewServer(a.mux)
	want := make([]bool, len(restartRequests))
	for i, q := range restartRequests {
		got, err := evalJSON(tsA.URL + q)
		if err != nil {
			t.Fatalf("server A %s: %v", q, err)
		}
		want[i] = got.Accepted
	}
	tsA.Close()
	if err := a.close(); err != nil {
		t.Fatalf("close server A: %v", err)
	}
	if st := a.store.Stats(); st.QueueDrops != 0 {
		t.Fatalf("server A dropped %d verdicts; the restart could not serve them", st.QueueDrops)
	}

	for _, backend := range []string{"sequential", "sharded"} {
		t.Run(backend, func(t *testing.T) {
			b, tsB := newTestServer(t, cfg)
			if entries := b.cache.Stats().Entries; entries != 0 {
				t.Fatalf("restarted cache holds %d entries before any request; want 0", entries)
			}
			if rec := b.store.Stats().Recovered; rec == 0 {
				t.Fatal("restart recovered no records")
			}
			var wg sync.WaitGroup
			for i, q := range restartRequests {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got, err := evalJSON(tsB.URL + q + "&backend=" + backend)
					if err != nil {
						t.Errorf("%s: %v", q, err)
					} else if got.Accepted != want[i] || got.Evaluated != 0 {
						t.Errorf("%s: accepted %v with %d evaluated, want %v with 0",
							q, got.Accepted, got.Evaluated, want[i])
					}
				}()
			}
			wg.Wait()
			if st := b.cache.Stats(); st.Loaded == 0 || st.Misses != 0 {
				t.Fatalf("restarted cache %+v: want Loaded > 0 and no Misses", st)
			}
		})
	}
}

// freshVerdict evaluates the instance a request names with a brand-new
// engine run: no cache, no dedup, no store — the ground truth the recovered
// service must agree with.
func freshVerdict(t *testing.T, rawQuery string) bool {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, rawQuery, nil)
	if err != nil {
		t.Fatalf("parse %s: %v", rawQuery, err)
	}
	kind, n, deciderName, seed, err := parseCommon(req)
	if err != nil {
		t.Fatalf("parse %s: %v", rawQuery, err)
	}
	g, err := buildServedGraph(kind, n, 1<<21)
	if err != nil {
		t.Fatalf("build %s: %v", rawQuery, err)
	}
	fresh := &server{cfg: testConfig()}
	res, err := fresh.buildResident(g, deciderName, seed)
	if err != nil {
		t.Fatalf("decider %s: %v", rawQuery, err)
	}
	out := engine.EvalOblivious(res.dec, res.l, engine.Options{EarlyExit: true})
	if out.Err != nil {
		t.Fatalf("fresh evaluation of %s failed: %v", rawQuery, out.Err)
	}
	return out.Accepted
}

// chaosServe is the child body: serve on a loopback port and evaluate the
// request set in an endless loop, printing one newline per completed pass.
// SyncEvery plus a tiny queue keeps the store appending continuously so the
// parent's SIGKILL lands mid-write with high probability.
func chaosServe(storePath string) {
	cfg := testConfig()
	cfg.storePath = storePath
	cfg.syncEvery = true
	cfg.queueDepth = 4
	s, err := newServer(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "chaos child: %v\n", err)
		os.Exit(1)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintf(os.Stderr, "chaos child: %v\n", err)
		os.Exit(1)
	}
	s.ready.Store(true)
	go http.Serve(ln, s.mux)
	base := "http://" + ln.Addr().String()
	serve := func(q string) {
		resp, err := http.Get(base + q)
		if err != nil {
			fmt.Fprintf(os.Stderr, "chaos child: %v\n", err)
			os.Exit(1)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	// Pass one: the fixed set the parent verifies after restart.
	for _, q := range chaosRequestSet() {
		serve(q)
	}
	fmt.Println() // pass completed: the parent may kill any time now
	// Then: ever-fresh seeds, so new canonical views keep flowing into the
	// write-behind log and the SIGKILL lands while the store is appending.
	for seed := 1000; ; seed++ {
		serve(fmt.Sprintf("/v1/eval?graph=cycle&n=97&decider=3col&seed=%d", seed))
		serve(fmt.Sprintf("/v1/eval?graph=cycle&n=51&decider=mis&seed=%d", seed))
	}
}
