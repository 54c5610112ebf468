// Command decided is the decision-as-a-service daemon: a resident HTTP
// server that keeps the paper's instance families, a bounded verdict cache
// and a crash-safe persistent verdict store warm across requests, so
// repeated decision queries cost a cache lookup instead of a cold
// evaluation.
//
// Usage:
//
//	decided -addr :8080 -store /var/lib/decided/verdicts.log
//	decided -addr 127.0.0.1:0 -cache-bytes 67108864 -max-inflight 16
//
// Endpoints:
//
//	GET /v1/eval?graph=cycle&n=64&decider=degree2[&seed=1][&backend=sharded][&timeout_ms=500]
//	    Evaluate a decider of the catalogue in internal/family (the names
//	    localsim takes) on the named instance. A deterministic decider's
//	    answers flow through the shared bounded cache, and its fresh
//	    verdicts are written behind to the store. 429 + Retry-After under
//	    overload, 504 when the evaluation exceeds its deadline.
//	GET /v1/trials?graph=cycle&n=64&decider=coin&trials=500[&confidence=0.99][&timeout_ms=2000]
//	    Monte Carlo acceptance sweep of a randomized decider. A deadline
//	    mid-sweep returns the committed prefix (committed < requested).
//	GET /healthz   process liveness.
//	GET /readyz    serving readiness: 503 until the store is recovered and
//	               the listener is up, and during drain.
//	GET /statsz    counters: admission, cache accounting (cache.Loaded:
//	               verdicts read through from the store), store recovery
//	               and write-behind (store.Oversized: verdicts refused as
//	               too large to recover).
//
// Shutdown: SIGTERM/SIGINT flips /readyz to 503, drains in-flight
// evaluations (bounded by -drain-timeout), flushes the store and exits —
// a SIGKILL'd instance instead recovers on next start by truncating the
// store's torn tail, and serves every intact verdict by reading it through
// from the store on the first request that needs it.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "decided:", err)
		os.Exit(1)
	}
}

// parseFlags resolves and validates the configuration up front: every
// misconfiguration is a one-line usage error before any socket or file is
// touched.
func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("decided", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	storePath := fs.String("store", "", "persistent verdict log path (empty disables persistence)")
	cacheBytes := fs.Int64("cache-bytes", 64<<20, "verdict cache byte budget (bounded, CLOCK-evicted)")
	maxInflight := fs.Int("max-inflight", 32, "admission control: max concurrent evaluations before 429")
	defaultTimeout := fs.Duration("timeout", 5*time.Second, "default per-request evaluation deadline")
	maxTimeout := fs.Duration("max-timeout", 60*time.Second, "cap on the per-request timeout_ms parameter")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second, "graceful-shutdown budget for in-flight evaluations")
	queueDepth := fs.Int("store-queue", 1024, "write-behind store queue depth")
	syncEvery := fs.Bool("store-sync", false, "fsync the store after every write batch")
	maxNodes := fs.Int("max-nodes", 1<<21, "largest instance (node count) served")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	if fs.NArg() > 0 {
		return config{}, fmt.Errorf("unexpected positional arguments: %v", fs.Args())
	}
	cfg := config{
		addr:           *addr,
		storePath:      *storePath,
		cacheBytes:     *cacheBytes,
		maxInflight:    *maxInflight,
		defaultTimeout: *defaultTimeout,
		maxTimeout:     *maxTimeout,
		drainTimeout:   *drainTimeout,
		queueDepth:     *queueDepth,
		syncEvery:      *syncEvery,
		maxNodes:       *maxNodes,
	}
	return cfg, validateConfig(cfg)
}

// validateConfig is the up-front configuration check shared by parseFlags
// and its tests.
func validateConfig(cfg config) error {
	if cfg.addr == "" {
		return errors.New("-addr must not be empty")
	}
	if _, _, err := net.SplitHostPort(cfg.addr); err != nil {
		return fmt.Errorf("-addr %q is not host:port: %v", cfg.addr, err)
	}
	if cfg.cacheBytes <= 0 {
		return fmt.Errorf("-cache-bytes must be positive, got %d", cfg.cacheBytes)
	}
	if cfg.maxInflight < 1 {
		return fmt.Errorf("-max-inflight must be at least 1, got %d", cfg.maxInflight)
	}
	if cfg.defaultTimeout <= 0 {
		return fmt.Errorf("-timeout must be positive, got %v", cfg.defaultTimeout)
	}
	if cfg.maxTimeout < cfg.defaultTimeout {
		return fmt.Errorf("-max-timeout %v must be at least -timeout %v", cfg.maxTimeout, cfg.defaultTimeout)
	}
	if cfg.drainTimeout <= 0 {
		return fmt.Errorf("-drain-timeout must be positive, got %v", cfg.drainTimeout)
	}
	if cfg.queueDepth < 1 {
		return fmt.Errorf("-store-queue must be at least 1, got %d", cfg.queueDepth)
	}
	if cfg.maxNodes < 1 {
		return fmt.Errorf("-max-nodes must be positive, got %d", cfg.maxNodes)
	}
	return nil
}

func run(args []string) error {
	cfg, err := parseFlags(args)
	if err != nil {
		return err
	}
	srv, err := newServer(cfg)
	if err != nil {
		return err
	}

	httpSrv := &http.Server{Addr: cfg.addr, Handler: srv.mux}
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		srv.close()
		return err
	}
	fmt.Printf("decided: listening on %s", ln.Addr())
	if cfg.storePath != "" {
		st := srv.store.Stats()
		fmt.Printf(" (store %s: %d verdicts recovered, %d bytes truncated)",
			cfg.storePath, st.Recovered, st.TruncatedBytes)
	}
	fmt.Println()
	srv.ready.Store(true)

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-serveErr:
		srv.close()
		return err
	case got := <-sig:
		fmt.Printf("decided: %v: draining (up to %v)\n", got, cfg.drainTimeout)
	}

	// Drain: stop admitting (readyz flips 503), let in-flight evaluations
	// finish, then flush the store so every served verdict is durable.
	srv.ready.Store(false)
	ctx, cancel := context.WithTimeout(context.Background(), cfg.drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		srv.close()
		return fmt.Errorf("drain: %w", err)
	}
	if err := srv.close(); err != nil {
		return fmt.Errorf("store shutdown: %w", err)
	}
	fmt.Println("decided: drained and flushed, exiting")
	return nil
}
