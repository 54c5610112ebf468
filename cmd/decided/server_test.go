package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/family"
	"repro/internal/graph"
	"repro/internal/testutil"
)

// testConfig is a small, fast server configuration for in-process tests.
func testConfig() config {
	return config{
		addr:           "127.0.0.1:0",
		cacheBytes:     1 << 20,
		maxInflight:    8,
		defaultTimeout: 5 * time.Second,
		maxTimeout:     10 * time.Second,
		drainTimeout:   5 * time.Second,
		queueDepth:     64,
		maxNodes:       1 << 20,
	}
}

// slowDecider is a deterministic decider that sleeps per view — the handle
// tests use (with nocache=1) to hold evaluations in flight on demand.
func slowDecider(perView time.Duration) engine.Decider {
	return engine.Decider{Name: "slowdec", Horizon: 1,
		Decide: func(*graph.View) engine.Verdict {
			time.Sleep(perView)
			return engine.Yes
		}}
}

// newTestServer builds an in-process server plus an httptest front end.
func newTestServer(t *testing.T, cfg config) (*server, *httptest.Server) {
	t.Helper()
	s, err := newServer(cfg)
	if err != nil {
		t.Fatalf("newServer: %v", err)
	}
	s.ready.Store(true)
	ts := httptest.NewServer(s.mux)
	t.Cleanup(func() {
		ts.Close()
		if err := s.close(); err != nil {
			t.Errorf("server close: %v", err)
		}
	})
	return s, ts
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

// TestEvalEndpoint: a decision request answers correctly and the second
// identical request is served entirely from the resident cache.
func TestEvalEndpoint(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	_, ts := newTestServer(t, testConfig())
	code, body := get(t, ts.URL+"/v1/eval?graph=cycle&n=64&decider=degree2")
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var r1 evalResponse
	if err := json.Unmarshal([]byte(body), &r1); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if !r1.Accepted || r1.N != 64 {
		t.Fatalf("cycle/degree2 must accept: %+v", r1)
	}
	_, body = get(t, ts.URL+"/v1/eval?graph=cycle&n=64&decider=degree2")
	var r2 evalResponse
	json.Unmarshal([]byte(body), &r2)
	if r2.Evaluated != 0 {
		t.Fatalf("repeat request re-evaluated %d views; want full cache service", r2.Evaluated)
	}
	// A rejecting instance rejects: a star's hub exceeds degree 2.
	_, body = get(t, ts.URL+"/v1/eval?graph=star&n=6&decider=degree2")
	var r3 evalResponse
	json.Unmarshal([]byte(body), &r3)
	if r3.Accepted {
		t.Fatalf("star/degree2 must reject: %+v", r3)
	}
}

// TestEvalValidation: malformed requests get one-line 400s, not evaluations.
func TestEvalValidation(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	for _, q := range []string{
		"/v1/eval?decider=degree2&graph=nosuch",
		"/v1/eval?decider=nosuch",
		"/v1/eval",
		"/v1/eval?decider=degree2&n=abc",
		"/v1/eval?decider=degree2&n=-3",
		"/v1/eval?decider=degree2&timeout_ms=0",
		"/v1/eval?decider=degree2&timeout_ms=xyz",
		"/v1/eval?decider=degree2&backend=quantum",
		"/v1/eval?decider=degree2&seed=1e9",
		"/v1/trials?decider=coin&trials=0",
		"/v1/trials?decider=coin&confidence=1.5",
		"/v1/trials?decider=degree2", // deterministic decider on the trials endpoint
	} {
		code, body := get(t, ts.URL+q)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d (want 400): %s", q, code, strings.TrimSpace(body))
		}
	}
	// The size cap is enforced before construction of oversized instances.
	cfg := testConfig()
	cfg.maxNodes = 100
	_, ts2 := newTestServer(t, cfg)
	if code, _ := get(t, ts2.URL+"/v1/eval?graph=cycle&n=101&decider=degree2"); code != http.StatusBadRequest {
		t.Errorf("over-cap instance: status %d, want 400", code)
	}
}

// TestEvalServesTheCatalogue: decided resolves decider names through the
// catalogue of internal/family, so forest, which it did not serve before
// the catalogue, is served (accepting a path, rejecting a cycle), and the
// 400 for an unknown decider lists every catalogue name.
func TestEvalServesTheCatalogue(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	for q, want := range map[string]bool{
		"/v1/eval?graph=path&n=20&decider=forest":  true,
		"/v1/eval?graph=cycle&n=20&decider=forest": false,
	} {
		code, body := get(t, ts.URL+q)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", q, code, strings.TrimSpace(body))
		}
		var r evalResponse
		if err := json.Unmarshal([]byte(body), &r); err != nil {
			t.Fatalf("%s: bad JSON: %v", q, err)
		}
		if r.Accepted != want || r.Decider != "forest" || r.N != 20 {
			t.Errorf("%s: %+v, want accepted=%v", q, r, want)
		}
	}
	code, body := get(t, ts.URL+"/v1/eval?graph=cycle&n=8&decider=mystery")
	if code != http.StatusBadRequest {
		t.Fatalf("unknown decider: status %d, want 400", code)
	}
	for _, name := range family.DeciderNames() {
		if !strings.Contains(body, name) {
			t.Errorf("unknown-decider 400 %q does not list %q", strings.TrimSpace(body), name)
		}
	}
}

// TestEvalRefusesBadSizesBeforeBuilding: sizes outside a family's range
// answer 400 instead of panicking in the handler, and the node cap is
// checked before the graph is built, so an oversized request allocates
// nothing like the graph it names.
func TestEvalRefusesBadSizesBeforeBuilding(t *testing.T) {
	cfg := testConfig()
	cfg.maxNodes = 100
	_, ts := newTestServer(t, cfg)
	for _, q := range []string{
		"/v1/eval?graph=cycle&n=2&decider=degree2",
		"/v1/eval?graph=cycle&n=1&decider=degree2",
		"/v1/trials?graph=cycle&n=2&decider=coin",
		"/v1/eval?graph=grid&n=1000000000&decider=degree2",
		"/v1/eval?graph=path&n=9223372036854775807&decider=degree2",
	} {
		if code, body := get(t, ts.URL+q); code != http.StatusBadRequest {
			t.Errorf("%s: status %d (want 400): %s", q, code, strings.TrimSpace(body))
		}
	}
	// A 4·10^6-node grid would allocate over 100 MB if it were built.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if code, _ := get(t, ts.URL+"/v1/eval?graph=grid&n=1000000&decider=degree2"); code != http.StatusBadRequest {
		t.Fatalf("over-cap grid: status %d, want 400", code)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
		t.Fatalf("refusing an over-cap grid allocated %d bytes", grew)
	}
}

// TestEvalDeadline: an evaluation that cannot finish inside its timeout_ms
// returns 504 and counts a deadline, instead of hogging the worker.
func TestEvalDeadline(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	cfg := testConfig()
	cfg.testDeciders = map[string]engine.Decider{"slowdec": slowDecider(200 * time.Microsecond)}
	s, ts := newTestServer(t, cfg)
	start := time.Now()
	code, body := get(t, ts.URL+"/v1/eval?graph=cycle&n=20000&decider=slowdec&nocache=1&timeout_ms=50")
	elapsed := time.Since(start)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d (want 504): %s", code, body)
	}
	// 20k views x 200µs is 4s; the deadline must cut far below.
	if elapsed > 2*time.Second {
		t.Fatalf("deadline-cut request took %v", elapsed)
	}
	if s.deadlines.Load() == 0 {
		t.Fatal("deadline counter not bumped")
	}
}

// TestEvalSymmetricViewWithinDeadline: the hub's view of the uniformly
// labelled 64-node star is the whole star, with 63 interchangeable leaves.
// Twin pruning codes it in well under a millisecond, so the request answers
// 200 inside its 50 ms deadline with the verdict of a cache-free
// evaluation. The handler polls its deadline only between views, so without
// pruning it would compute for hours: the client timeout turns that into a
// failure, and the server is closed only once it has answered.
func TestEvalSymmetricViewWithinDeadline(t *testing.T) {
	s, err := newServer(testConfig())
	if err != nil {
		t.Fatalf("newServer: %v", err)
	}
	s.ready.Store(true)
	ts := httptest.NewServer(s.mux)
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(ts.URL + "/v1/eval?graph=star&n=64&decider=degree2&timeout_ms=50")
	if err != nil {
		t.Fatalf("no answer: %v", err)
	}
	t.Cleanup(func() {
		ts.Close()
		if err := s.close(); err != nil {
			t.Errorf("server close: %v", err)
		}
	})
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (want 200): %s", resp.StatusCode, body)
	}
	var got evalResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	res, err := s.residentFor("star", 64, "degree2", 1)
	if err != nil {
		t.Fatal(err)
	}
	want := engine.EvalOblivious(res.dec, res.l, engine.Options{})
	if want.Err != nil || got.N != 64 || got.Accepted != want.Accepted {
		t.Fatalf("answer %+v, cache-free evaluation accepted=%v (err %v)", got, want.Accepted, want.Err)
	}
}

// TestAdmissionControl: with one admission slot, a second concurrent
// evaluation is shed with 429 + Retry-After, and service resumes once the
// slot frees.
func TestAdmissionControl(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	cfg := testConfig()
	cfg.maxInflight = 1
	cfg.testDeciders = map[string]engine.Decider{"slowdec": slowDecider(500 * time.Microsecond)}
	s, ts := newTestServer(t, cfg)

	slowDone := make(chan int, 1)
	go func() {
		code, _ := get(t, ts.URL+"/v1/eval?graph=cycle&n=1000&decider=slowdec&nocache=1")
		slowDone <- code
	}()
	// Wait until the slow evaluation holds the slot, then probe. Probing
	// earlier could take the slot first and shed the slow evaluation. Its
	// 1,000 sleeps hold the slot for at least 0.5 s, and finish inside the
	// 5 s default timeout even where a 500 µs sleep lasts over 1.25 ms.
	deadline := time.Now().Add(2 * time.Second)
	for len(s.sem) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow evaluation never took the slot")
		}
		time.Sleep(time.Millisecond)
	}
	resp, err := http.Get(ts.URL + "/v1/eval?graph=cycle&n=8&decider=degree2")
	if err != nil {
		t.Fatalf("probe: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("probe while slot held: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if got := <-slowDone; got != http.StatusOK {
		t.Fatalf("slow evaluation finished %d, want 200", got)
	}
	// Slot free again: the same request now serves.
	if code, body := get(t, ts.URL+"/v1/eval?graph=cycle&n=8&decider=degree2"); code != http.StatusOK {
		t.Fatalf("post-drain request: status %d: %s", code, body)
	}
}

// TestTrialsEndpoint: the Monte Carlo endpoint returns committed statistics,
// and a deadline mid-sweep returns the committed prefix (committed <
// requested) rather than an error or a fabricated total.
func TestTrialsEndpoint(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	s, ts := newTestServer(t, testConfig())
	code, body := get(t, ts.URL+"/v1/trials?graph=cycle&n=32&decider=coin&trials=300&seed=7")
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var r1 trialsResponse
	if err := json.Unmarshal([]byte(body), &r1); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if r1.Committed != 300 {
		t.Fatalf("committed %d of 300 without a deadline", r1.Committed)
	}
	if r1.CILow > r1.Estimate || r1.Estimate > r1.CIHigh {
		t.Fatalf("estimate %v outside its CI [%v, %v]", r1.Estimate, r1.CILow, r1.CIHigh)
	}
	// A sweep too large for its deadline returns a partial prefix.
	code, body = get(t, ts.URL+"/v1/trials?graph=cycle&n=2048&decider=coin&trials=5000000&timeout_ms=50")
	if code != http.StatusOK {
		t.Fatalf("partial sweep status %d: %s", code, body)
	}
	var r2 trialsResponse
	json.Unmarshal([]byte(body), &r2)
	if r2.Committed >= r2.Requested {
		t.Fatalf("5M-trial sweep committed %d inside 50ms — deadline not applied", r2.Committed)
	}
	if s.deadlines.Load() == 0 {
		t.Fatal("partial sweep not counted as a deadline")
	}
}

// TestReadyz: readiness reflects the ready flag; health stays 200 throughout.
func TestReadyz(t *testing.T) {
	s, ts := newTestServer(t, testConfig())
	if code, _ := get(t, ts.URL+"/readyz"); code != http.StatusOK {
		t.Fatalf("ready server reports %d", code)
	}
	s.ready.Store(false)
	if code, _ := get(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("draining server reports %d, want 503", code)
	}
	if code, _ := get(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz reports %d", code)
	}
}

// TestStatszShape: the stats document parses and carries the cache and
// store sections.
func TestStatszShape(t *testing.T) {
	cfg := testConfig()
	cfg.storePath = filepath.Join(t.TempDir(), "v.log")
	_, ts := newTestServer(t, cfg)
	get(t, ts.URL+"/v1/eval?graph=cycle&n=64&decider=degree2")
	_, body := get(t, ts.URL+"/statsz")
	var st statszResponse
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("statsz not JSON: %v\n%s", err, body)
	}
	if st.Served != 1 || st.MaxInflight != testConfig().maxInflight {
		t.Fatalf("counters off: %+v", st)
	}
	if st.Cache.Capacity != testConfig().cacheBytes {
		t.Fatalf("cache capacity %d, want %d", st.Cache.Capacity, testConfig().cacheBytes)
	}
	if st.Store == nil {
		t.Fatal("store section missing with persistence on")
	}
}

// TestGracefulDrain: shutdown waits for the in-flight evaluation, which
// completes with 200; the store is flushed on close; no goroutines leak.
func TestGracefulDrain(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	cfg := testConfig()
	cfg.storePath = filepath.Join(t.TempDir(), "v.log")
	cfg.testDeciders = map[string]engine.Decider{"slowdec": slowDecider(500 * time.Microsecond)}
	s, err := newServer(cfg)
	if err != nil {
		t.Fatalf("newServer: %v", err)
	}
	s.ready.Store(true)
	ts := httptest.NewServer(s.mux)

	inFlight := make(chan int, 1)
	go func() {
		code, _ := get(t, ts.URL+"/v1/eval?graph=cycle&n=1000&decider=slowdec&nocache=1")
		inFlight <- code
	}()
	// Wait for the request to actually hold its admission slot.
	for i := 0; len(s.sem) == 0 && i < 400; i++ {
		time.Sleep(5 * time.Millisecond)
	}
	if len(s.sem) == 0 {
		t.Fatal("slow request never entered flight")
	}
	s.ready.Store(false)
	ts.Config.SetKeepAlivesEnabled(false)
	done := make(chan struct{})
	go func() { ts.Close(); close(done) }() // Close waits for outstanding requests
	select {
	case code := <-inFlight:
		if code != http.StatusOK {
			t.Fatalf("drained evaluation finished %d, want 200", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight evaluation never finished during drain")
	}
	<-done
	if err := s.close(); err != nil {
		t.Fatalf("store close after drain: %v", err)
	}
	if st := s.store.Stats(); st.Appended == 0 && st.QueueDrops == 0 {
		// The slow eval ran nocache so nothing persisted — but the earlier
		// counter contract still holds: closing flushed without error.
		t.Log("no records persisted (nocache evaluation), flush still clean")
	}
}

// TestOverloadSoak floods the server far past its admission width from many
// goroutines (run under -race): every response is 200 or 429, both occur,
// the server still serves afterwards, and no goroutines leak.
func TestOverloadSoak(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	cfg := testConfig()
	cfg.maxInflight = 2
	cfg.testDeciders = map[string]engine.Decider{"slowdec": slowDecider(100 * time.Microsecond)}
	s, ts := newTestServer(t, cfg)

	const clients = 16
	const perClient = 20
	var ok200, shed429 int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := &http.Client{Timeout: 30 * time.Second}
			for i := 0; i < perClient; i++ {
				url := fmt.Sprintf("%s/v1/eval?graph=cycle&n=%d&decider=slowdec&nocache=1", ts.URL, 200+(c*perClient+i)%7)
				resp, err := client.Get(url)
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				mu.Lock()
				switch resp.StatusCode {
				case http.StatusOK:
					ok200++
				case http.StatusTooManyRequests:
					shed429++
				default:
					t.Errorf("unexpected status %d", resp.StatusCode)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	if ok200 == 0 {
		t.Fatal("soak produced no successful evaluations")
	}
	if shed429 == 0 {
		t.Fatal("soak past 2 admission slots shed nothing — admission control inert")
	}
	if s.rejected.Load() != shed429 {
		t.Fatalf("rejected counter %d != observed 429s %d", s.rejected.Load(), shed429)
	}
	// The server is still healthy after the storm.
	if code, body := get(t, ts.URL+"/v1/eval?graph=cycle&n=64&decider=degree2"); code != http.StatusOK {
		t.Fatalf("post-soak request: status %d: %s", code, body)
	}
}

// TestParseFlagsValidation pins the up-front flag validation: each bad
// configuration is a one-line error before any socket or file opens.
func TestParseFlagsValidation(t *testing.T) {
	cases := [][]string{
		{"-addr", ""},
		{"-addr", "no-port-here"},
		{"-cache-bytes", "0"},
		{"-cache-bytes", "-5"},
		{"-max-inflight", "0"},
		{"-timeout", "0s"},
		{"-timeout", "10s", "-max-timeout", "1s"},
		{"-drain-timeout", "-1s"},
		{"-store-queue", "0"},
		{"-max-nodes", "0"},
		{"positional"},
	}
	for _, args := range cases {
		if _, err := parseFlags(args); err == nil {
			t.Errorf("parseFlags(%v) accepted a bad configuration", args)
		}
	}
	if _, err := parseFlags([]string{"-addr", "127.0.0.1:0"}); err != nil {
		t.Errorf("default configuration rejected: %v", err)
	}
}
