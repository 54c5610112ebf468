// Command localsim runs a local decision algorithm on a generated instance
// and prints the per-node verdicts: a small driver for the LOCAL-model
// evaluation engine.
//
// Usage:
//
//	localsim -graph cycle -n 8 -decider 3col
//	localsim -graph cycle -n 1000 -decider degree2 -backend sharded -dedup
//	localsim -graph star -n 6 -decider degree2 -backend mp
//	localsim -graph cycle -n 500 -decider degree2 -runs 5 -cache
//	localsim -graph pyramid -n 10 -decider triangle-free -backend sharded -dedup -summary
//	localsim -graph cycle -n 64 -decider coin -trials 500 -confidence 0.99
//	localsim -graph cycle -n 64 -decider coin -trials 5000 -threshold 0.5
//
// Graphs: cycle, path, star, grid (rows x cols ~ n x 4), tree (depth n),
// pyramid (the Appendix-A layered quadtree of height n: n=10 is the
// 1024x1024 base, ~1.4 million nodes — the engine-scale sweep workload the
// arithmetic coordinate indexing unlocked), random (Erdős–Rényi on n nodes
// at expected degree ~4, seeded by -seed).
// Deciders are the catalogue of internal/family, the one table both
// commands resolve -decider through: 3col (labels random colours), mis
// (labels random bits), degree2, triangle-free, forest (labels are
// BFS-distance forest certificates; the horizon-1 certificate verifier
// rejects exactly when an update created a cycle or detached a certified
// parent — the natural dynamic language), coin (randomized: each node
// accepts unless its 1-in-64 coin draw comes up zero). A single evaluation
// of coin draws every node's coins from -seed on the same path as the
// deterministic deciders; -trials sweeps it.
// Backends: sequential (default), sharded (worker pool), mp (the flooding
// message-passing protocol). -dedup decides each distinct canonical view once.
// -runs repeats the evaluation; with -cache the runs share one cross-run
// verdict cache (engine.ViewCache), so later runs reuse every verdict
// decided earlier — the per-run stats lines show the hits. -summary
// suppresses the per-node verdict lines, which at pyramid scale would be
// millions of lines of output.
//
// -trials N runs a randomized decider through the engine's Monte Carlo
// subsystem (engine.EvalTrials): N independent trials with deterministic
// per-(trial, node) coin streams, per-trial early exit, and a Wilson
// confidence interval on the acceptance estimate at the -confidence level.
// -threshold T additionally enables adaptive stopping: the sweep halts as
// soon as the interval separates from T. The trial pool follows -backend
// (sequential: one worker; sharded: GOMAXPROCS workers) — the committed
// statistics are identical either way, by construction.
//
// -faults injects deterministic, seed-replayable faults (internal/fault;
// replay is keyed by -fault-seed, intensity by -fault-rate):
//
//	localsim -faults flip -fault-rate 0.05 -fault-seed 7 -trials 20
//	localsim -faults labels -fault-rate 0.10 -summary
//	localsim -graph cycle -n 64 -decider degree2 -faults crash -fault-rate 0.2
//	localsim -graph cycle -n 32 -decider degree2 -faults messages -fault-rate 0.1
//
// Label models (flip | swap | randomize | labels = all three) run the E16
// self-stabilization protocol on the halting pyramidal family G(M, r) —
// corrupt, heal, re-decide — and print a rounds-to-recovery table
// (-graph/-decider are ignored; -trials sets episodes per model) that one
// -fault-seed replays byte for byte. The shared cache's counters close the
// table; with -shards they go to stderr, since early exit makes them depend
// on the shards' schedule. "crash"
// injects decider crashes into the chosen instance on any backend and shows
// the retry/VerdictError machinery; "messages" forces the MessagePassing
// backend and injects drop/duplicate/delay at the given rate, showing the
// degraded-but-never-wrong fallback path.
//
// -dynamic N streams N seeded edge toggles through the decided instance and
// reports sustained updates/sec. With -incremental the instance stays
// resident in an engine.Incremental session and each update repairs only
// the radius-t balls around the touched endpoints (O(dirty), not O(n));
// without it every update triggers a from-scratch re-evaluation — run both
// to see the gap:
//
//	localsim -graph cycle -n 100000 -decider degree2 -dynamic 1000 -incremental -summary
//	localsim -graph random -n 1000 -decider forest -dynamic 200 -incremental -summary
//	localsim -graph cycle -n 10000 -decider degree2 -dynamic 50 -summary
//
// -incremental also reroutes the E16 label models (-faults flip|swap|...)
// through the resident-session episode path: identical tables, ball-sized
// heal-round repairs.
//
// -cpuprofile FILE and -memprofile FILE record runtime/pprof profiles of the
// whole invocation (graph construction included — build cost is part of a
// real sweep). The memory profile is a heap snapshot after a final GC. View
// with `go tool pprof FILE`. These exist so perf work can profile actual
// sweeps — e.g. a cold pyramid run at height 10 — instead of extrapolating
// from microbenchmarks:
//
//	localsim -graph pyramid -n 10 -decider triangle-free -dedup -summary -cpuprofile cpu.out -memprofile mem.out
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/family"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/halting"
	"repro/internal/local"
	"repro/internal/turing"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "localsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("localsim", flag.ContinueOnError)
	graphKind := fs.String("graph", "cycle", "cycle | path | star | grid | tree | pyramid | random")
	n := fs.Int("n", 8, "size parameter")
	deciderName := fs.String("decider", "3col", strings.Join(family.DeciderNames(), " | "))
	seed := fs.Int64("seed", 1, "label and coin seed")
	backend := fs.String("backend", "sequential", "sequential | sharded | mp")
	shards := fs.Int("shards", 0, "run the sharded halo-exchange runtime with this many shards (0 = off; level-contiguous partitioning for pyramid/tree, BFS-blocked otherwise)")
	dedup := fs.Bool("dedup", false, "decide each distinct canonical view once")
	runs := fs.Int("runs", 1, "repeat the evaluation this many times")
	useCache := fs.Bool("cache", false, "share a cross-run verdict cache between runs (implies -dedup)")
	summary := fs.Bool("summary", false, "suppress per-node verdict lines (use for large instances)")
	trials := fs.Int("trials", 0, "run a Monte Carlo sweep of this many trials (randomized deciders only)")
	confidence := fs.Float64("confidence", 0.95, "confidence level for the trial sweep's Wilson interval")
	threshold := fs.Float64("threshold", math.NaN(), "acceptance threshold enabling adaptive stopping of the trial sweep")
	dynamic := fs.Int("dynamic", 0, "stream this many seeded edge toggles through the instance and report updates/sec")
	incremental := fs.Bool("incremental", false, "keep the instance resident in an incremental session (ball-sized repairs) for -dynamic and the E16 label models")
	faults := fs.String("faults", "", "inject faults: flip | swap | randomize | labels | crash | messages")
	faultRate := fs.Float64("fault-rate", 0.05, "fault intensity: corrupted-label fraction, crash or message-fault probability")
	faultSeed := fs.Int64("fault-seed", 1, "seed of the deterministic fault streams (same seed replays the same faults)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the invocation to this file (go tool pprof)")
	memprofile := fs.String("memprofile", "", "write a post-GC heap profile to this file (go tool pprof)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	_, buildGraph, err := family.New(*graphKind, *n, *seed)
	if err != nil {
		return err
	}
	if err := validateFlags(fs.NArg(), *deciderName, *backend, *shards, *runs,
		*trials, *confidence, *threshold, *faults, *faultRate, *dynamic); err != nil {
		return err
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		// Deferred so the snapshot covers whichever mode ran; a final GC
		// makes the profile reflect live memory, not collectable garbage.
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "localsim: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "localsim: memprofile:", err)
			}
		}()
	}
	switch *faults {
	case "flip", "swap", "randomize", "labels":
		return runSelfStab(os.Stdout, os.Stderr, *faults, *faultRate, *faultSeed, *trials, *incremental, *shards)
	}

	l, dec, err := family.Decider(*deciderName, buildGraph(), *seed)
	if err != nil {
		return err
	}
	switch randomized := dec.DecideRand != nil; {
	case randomized && (*faults != "" || *dynamic > 0):
		return fmt.Errorf("-faults and -dynamic need a deterministic decider, got %q", *deciderName)
	case *faults != "":
		return runFaulty(*faults, l, dec, *graphKind, *backend, *shards, *faultRate, *faultSeed, *summary)
	case *dynamic > 0:
		return runDynamic(l, dec, *graphKind, *backend, *shards, *dynamic, *seed, *incremental, *dedup, *summary)
	case *trials > 0 && !randomized:
		return fmt.Errorf("decider %q is deterministic; -trials needs a randomized decider (coin)", *deciderName)
	case *trials > 0:
		return runTrials(l, dec, *graphKind, *backend, *trials, *seed, *confidence, *threshold)
	}
	sched, err := buildScheduler(*backend, *shards, *graphKind)
	if err != nil {
		return err
	}

	var cache *engine.ViewCache
	if *useCache {
		cache = engine.NewViewCache()
	}
	// The engine deduplicates and caches deterministic deciders only; a
	// randomized one draws each node's coins from Seed.
	opts := engine.Options{Scheduler: sched, Dedup: *dedup, Cache: cache, Seed: *seed}

	var out engine.Outcome
	for r := 0; r < *runs; r++ {
		out = engine.EvalOblivious(dec, l, opts)
		if *runs > 1 {
			s := out.Stats
			fmt.Printf("run %d: evaluated=%d dedupHits=%d cacheSize=%d\n",
				r+1, s.Evaluated, s.DedupHits, s.CacheSize)
		}
	}

	fmt.Printf("graph=%s n=%d decider=%s backend=%s\n", *graphKind, l.N(), dec.Name, out.Stats.Scheduler)
	printVerdicts(l, out, *summary, "some node said no")
	s := out.Stats
	isMP := s.Scheduler == engine.MessagePassing.Name()
	fmt.Printf("engine: workers=%d evaluated=%d", s.Workers, s.Evaluated)
	if (*dedup || *useCache) && !isMP {
		fmt.Printf(" dedupHits=%d distinctViews=%d", s.DedupHits, s.DistinctViews)
	}
	if isMP || s.Shards > 0 {
		fmt.Printf(" rounds=%d messages=%d knowledgeUnits=%d", s.Rounds, s.Messages, s.KnowledgeUnits)
	}
	fmt.Println()
	printShardedStats(s)
	if *useCache && !isMP {
		cs := cache.Stats()
		fmt.Printf("cache: shared across %d run(s), %d distinct views decided in total\n", *runs, cache.Len())
		fmt.Printf("cache: hits=%d misses=%d rejects=%d entries=%d\n", cs.Hits, cs.Misses, cs.Rejects, cs.Entries)
	}
	if (*dedup || *useCache) && isMP {
		fmt.Println("note: the message-passing backend assembles every view operationally and never deduplicates; -dedup/-cache had no effect")
	}
	return nil
}

// validateFlags is the up-front configuration check: every malformed or
// contradictory invocation fails with a one-line usage error here, before
// any profile file is created or any instance is built. -graph and -n are
// checked before it by family.New, which builds nothing; whether the decider
// is randomized, which -trials, -faults and -dynamic depend on, is known
// once the catalogue has labelled the host.
func validateFlags(nArgs int, decider, backend string,
	shards, runs, trials int, confidence, threshold float64, faults string, faultRate float64, dynamic int) error {
	if nArgs > 0 {
		return fmt.Errorf("unexpected positional arguments (flags only)")
	}
	if names := family.DeciderNames(); !slices.Contains(names, decider) {
		return fmt.Errorf("unknown decider %q (%s)", decider, strings.Join(names, " | "))
	}
	if dynamic < 0 {
		return fmt.Errorf("-dynamic must be non-negative, got %d", dynamic)
	}
	if dynamic > 0 {
		if trials > 0 {
			return fmt.Errorf("-dynamic and -trials are mutually exclusive")
		}
		if faults != "" {
			return fmt.Errorf("-dynamic and -faults are mutually exclusive")
		}
		if runs > 1 {
			return fmt.Errorf("-dynamic runs one sustained stream; drop -runs")
		}
	}
	switch backend {
	case "sequential", "sharded", "mp":
	default:
		return fmt.Errorf("unknown backend %q (sequential | sharded | mp)", backend)
	}
	if shards < 0 {
		return fmt.Errorf("-shards must be non-negative, got %d", shards)
	}
	if shards > 0 && backend != "sequential" {
		return fmt.Errorf("-shards selects the sharded message-passing runtime; drop -backend %q", backend)
	}
	if runs < 1 {
		return fmt.Errorf("-runs must be positive, got %d", runs)
	}
	if trials < 0 {
		return fmt.Errorf("-trials must be non-negative, got %d", trials)
	}
	if trials > 0 {
		if shards > 0 && faults == "" {
			return fmt.Errorf("-trials parallelises at trial level; drop -shards")
		}
		if backend == "mp" && faults == "" {
			return fmt.Errorf("-trials supports -backend sequential or sharded, not %q", backend)
		}
		if confidence <= 0 || confidence >= 1 || math.IsNaN(confidence) {
			return fmt.Errorf("-confidence must be in (0, 1), got %v", confidence)
		}
		if !math.IsNaN(threshold) && (threshold < 0 || threshold > 1) {
			return fmt.Errorf("-threshold must be in [0, 1], got %v", threshold)
		}
	}
	switch faults {
	case "":
	case "flip", "swap", "randomize", "labels":
		if faultRate <= 0 || faultRate > 1 || math.IsNaN(faultRate) {
			return fmt.Errorf("-fault-rate must be in (0, 1] for label models, got %v", faultRate)
		}
	case "crash", "messages":
		if faultRate < 0 || faultRate > 1 || math.IsNaN(faultRate) {
			return fmt.Errorf("-fault-rate must be in [0, 1], got %v", faultRate)
		}
	default:
		return fmt.Errorf("unknown -faults model %q (flip | swap | randomize | labels | crash | messages)", faults)
	}
	return nil
}

// runTrials drives the Monte Carlo subsystem: -trials with a randomized
// decider. The trial pool is one worker under -backend sequential and
// GOMAXPROCS under sharded.
func runTrials(l *graph.Labeled, dec engine.Decider, graphKind, backend string, trials int, seed int64, confidence, threshold float64) error {
	opts := engine.TrialOptions{Trials: trials, Seed: seed, Confidence: confidence}
	if backend == "sequential" {
		opts.Workers = 1
	}
	if !math.IsNaN(threshold) {
		opts.AdaptiveStop = true
		opts.Threshold = threshold
	}
	stats, err := engine.EvalTrials(engine.TrialDecider{Name: dec.Name, Horizon: dec.Horizon, DecideRand: dec.DecideRand}, l, opts)
	if err != nil {
		return err
	}
	fmt.Printf("graph=%s n=%d decider=%s backend=%s\n", graphKind, l.N(), dec.Name, backend)
	fmt.Printf("trials: committed=%d/%d accepted=%d estimate=%.4f CI%.0f=[%.4f, %.4f]\n",
		stats.Trials, trials, stats.Accepted, stats.Estimate,
		stats.Confidence*100, stats.CI.Low, stats.CI.High)
	if opts.AdaptiveStop {
		if stats.Stopped {
			fmt.Printf("adaptive stop: interval separated from threshold %.4f after %d trials\n",
				threshold, stats.Trials)
		} else {
			fmt.Printf("adaptive stop: interval never separated from threshold %.4f\n", threshold)
		}
	}
	// Evaluated counts decisions from discarded trials too, so it is not
	// comparable against committed×nodes — report it on its own.
	fmt.Printf("engine: workers=%d evaluated=%d randomized decisions (per-trial early exit)\n",
		stats.Workers, stats.Evaluated)
	return nil
}

// runSelfStab drives the E16 self-stabilization protocol from the command
// line: corrupt the pyramidal G(M, r)'s labels under each requested model,
// heal over geometric per-victim rounds, re-decide with the radius-1
// pyramidal label verifier every round, and report rounds-to-recovery and
// the exposure window on stdout. Everything in that table derives from
// -fault-seed, so stdout replays byte for byte. The shared cache's counters
// follow it on stdout too, except under -shards: every round's evaluation
// stops early, and how many views the shards decide, and so insert, before
// the first rejection stops them depends on their schedule, so the counters
// go to stderr, marked as such.
func runSelfStab(stdout, stderr io.Writer, model string, rate float64, seed int64, trials int, incremental bool, shards int) error {
	if incremental && shards > 0 {
		return fmt.Errorf("-incremental keeps the instance resident; drop -shards")
	}
	var models []fault.LabelModel
	if model == "labels" {
		models = []fault.LabelModel{fault.Flip, fault.Swap, fault.Randomize}
	} else {
		m, err := fault.ParseLabelModel(model)
		if err != nil {
			return err
		}
		models = []fault.LabelModel{m}
	}
	if trials <= 0 {
		trials = 20
	}
	p := halting.Params{Machine: turing.Counter(2, '0'), R: 1, MaxSteps: 100, FragmentLimit: 10}
	asm, err := p.BuildPyramidalG()
	if err != nil {
		return err
	}
	dec := local.EngineObliviousDecider(p.PyramidalLabelVerifier())
	cache := engine.NewViewCache()
	evalOpts := engine.Options{EarlyExit: true, Cache: cache}
	mode := "from-scratch per round"
	if incremental {
		mode = "incremental (ball-sized heal repairs)"
	}
	if shards > 0 {
		// E16 through the sharded runtime: the pyramidal instance is
		// level-ordered, so it shards level-contiguously.
		evalOpts.Scheduler = engine.ShardedMPPartitioned(shards, graph.PartitionLevelContiguous)
		mode = fmt.Sprintf("sharded-mp (%d shards, level-contiguous)", shards)
	}
	fmt.Fprintf(stdout, "self-stabilization: pyramidal G(%s, r=%d) n=%d rate=%.2f fault-seed=%d episodes=%d engine=%s\n",
		p.Machine.Name, p.R, asm.Labeled.N(), rate, seed, trials, mode)
	fmt.Fprintf(stdout, "%-10s %9s %10s %12s %15s %17s\n",
		"model", "episodes", "recovered", "mean rounds", "exposed rounds", "exposed episodes")
	for i, m := range models {
		sw, err := fault.RecoverySweep(asm.Labeled, fault.SelfStabConfig{
			Model:       m,
			Rate:        rate,
			Decider:     dec,
			Options:     evalOpts,
			Incremental: incremental,
		}, engine.TrialOptions{Trials: trials, Seed: seed + int64(i)})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%-10s %9d %10s %12.2f %15d %17d\n",
			m, sw.Episodes, fmt.Sprintf("%d/%d", sw.Trials.Accepted, sw.Episodes),
			sw.MeanRecoveryRounds, sw.ExposedRounds, sw.ExposedEpisodes)
	}
	cs := cache.Stats()
	cacheOut, note := stdout, ""
	if shards > 0 {
		cacheOut, note = stderr, " (schedule-dependent under -shards)"
	}
	fmt.Fprintf(cacheOut, "cache: hits=%d misses=%d rejects=%d entries=%d%s\n", cs.Hits, cs.Misses, cs.Rejects, cs.Entries, note)
	return nil
}

// runFaulty evaluates the chosen instance once under injected decider
// crashes or message faults, showing the engine's recovery machinery: retry
// counters, VerdictErrors (never misreported as accept or reject), and the
// MessagePassing incomplete-view fallback.
func runFaulty(mode string, l *graph.Labeled, dec engine.Decider, graphKind, backend string, shards int, rate float64, seed int64, summary bool) error {
	plan := &fault.Plan{Seed: seed}
	var opts engine.Options
	switch mode {
	case "crash":
		sched, err := buildScheduler(backend, shards, graphKind)
		if err != nil {
			return err
		}
		plan.Crash = &fault.CrashModel{Rate: rate}
		opts = engine.Options{Scheduler: sched, Faults: plan}
	case "messages":
		plan.Message = &fault.MessageModel{DropRate: rate, DuplicateRate: rate / 2, DelayRate: rate / 2}
		if shards > 0 {
			// Message fates apply per shard-pair link: a lost halo ring
			// degrades the receiving shard's rim nodes to exact fallback
			// extraction.
			opts = engine.Options{Scheduler: engine.ShardedMPPartitioned(shards, partitionStrategyFor(graphKind)), Faults: plan}
		} else {
			if backend != "sequential" && backend != "mp" {
				return fmt.Errorf("-faults messages runs on the message-passing backend, not %q", backend)
			}
			opts = engine.Options{Scheduler: engine.MessagePassing, Faults: plan}
		}
	}
	out := engine.EvalOblivious(dec, l, opts)
	fmt.Printf("graph=%s n=%d decider=%s backend=%s faults=%s rate=%.2f fault-seed=%d\n",
		graphKind, l.N(), dec.Name, out.Stats.Scheduler, mode, rate, seed)
	printVerdicts(l, out, summary, "some node said no")
	s := out.Stats
	fmt.Printf("engine: workers=%d evaluated=%d crashes=%d retries=%d\n",
		s.Workers, s.Evaluated, s.Crashes, s.Retries)
	if mode == "messages" {
		fmt.Printf("mp: rounds=%d messages=%d dropped=%d duplicated=%d delayed=%d retransmits=%d incompleteViews=%d\n",
			s.Rounds, s.Messages, s.Dropped, s.Duplicated, s.Delayed, s.Retransmits,
			s.IncompleteViews)
	}
	printShardedStats(s)
	for _, ve := range out.Errs {
		fmt.Printf("  error: %v\n", ve)
	}
	return nil
}

// runDynamic streams seeded edge toggles through the decided instance and
// reports sustained update throughput. With incremental=true the instance
// stays resident in an engine.Incremental session, so each update's cost is
// the dirty-ball repair around the touched endpoints; otherwise every update
// triggers a from-scratch re-evaluation — identical verdicts (the session is
// parity-tested against the full engine), different cost model.
func runDynamic(l *graph.Labeled, dec engine.Decider, graphKind, backend string, shards, updates int, seed int64, incremental, dedup, summary bool) error {
	sched, err := buildScheduler(backend, shards, graphKind)
	if err != nil {
		return err
	}
	n := l.N()
	if n < 2 {
		return fmt.Errorf("-dynamic needs at least 2 nodes, got %d", n)
	}
	opts := engine.Options{Scheduler: sched, Dedup: dedup}
	rng := rand.New(rand.NewSource(seed + 0x9e3779b9))
	mode := "from-scratch"
	if incremental {
		mode = "incremental"
	}
	fmt.Printf("graph=%s n=%d decider=%s backend=%s dynamic: updates=%d mode=%s\n",
		graphKind, n, dec.Name, backend, updates, mode)

	var (
		out        engine.Outcome
		applied    int
		dirtyTotal int
		elapsed    time.Duration
	)
	start := time.Now()
	if incremental {
		inc, err := engine.NewIncremental(dec, l, opts)
		if err != nil {
			return err
		}
		fmt.Printf("initial decision: %v accepted=%v rejects=%d\n",
			time.Since(start).Round(time.Microsecond), inc.Accepted(), inc.Rejects())
		ustart := time.Now()
		for i := 0; i < updates; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			dirtyTotal += inc.ApplyEdge(u, v, !l.G.HasEdge(u, v))
			applied++
		}
		elapsed = time.Since(ustart)
		if out = inc.Outcome(); out.Err != nil {
			return fmt.Errorf("dynamic stream: %w", out.Err)
		}
	} else {
		out = engine.EvalOblivious(dec, l, opts)
		if out.Err != nil {
			return fmt.Errorf("initial decision: %w", out.Err)
		}
		fmt.Printf("initial decision: %v accepted=%v\n",
			time.Since(start).Round(time.Microsecond), out.Accepted)
		ustart := time.Now()
		for i := 0; i < updates; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			l.G.ApplyUpdate(u, v, !l.G.HasEdge(u, v))
			applied++
			out = engine.EvalOblivious(dec, l, opts)
			if out.Err != nil {
				return fmt.Errorf("dynamic stream (update %d): %w", applied, out.Err)
			}
		}
		elapsed = time.Since(ustart)
		dirtyTotal = applied * n
	}

	perSec := float64(applied) / elapsed.Seconds()
	fmt.Printf("updates: applied=%d elapsed=%v throughput=%.0f updates/sec\n",
		applied, elapsed.Round(time.Microsecond), perSec)
	if applied > 0 {
		if incremental {
			fmt.Printf("repairs: %d node re-decisions (avg %.1f per update; full sweep is %d)\n",
				dirtyTotal, float64(dirtyTotal)/float64(applied), n)
		} else {
			fmt.Printf("re-evaluations: %d full sweeps, %d node re-decisions (%d per update)\n",
				applied, dirtyTotal, n)
		}
	}
	rejects := 0
	for _, vd := range out.Verdicts {
		if vd == engine.No {
			rejects++
		}
	}
	printVerdicts(l, out, summary, fmt.Sprintf("%d nodes say no", rejects))
	fmt.Printf("engine: workers=%d evaluated=%d", out.Stats.Workers, out.Stats.Evaluated)
	if dedup {
		fmt.Printf(" dedupHits=%d distinctViews=%d", out.Stats.DedupHits, out.Stats.DistinctViews)
	}
	fmt.Println()
	return nil
}

// printVerdicts prints every node's verdict, unless summary, and then the
// global verdict; rejected says why a rejecting instance was rejected.
func printVerdicts(l *graph.Labeled, out engine.Outcome, summary bool, rejected string) {
	if !summary {
		for v, vd := range out.Verdicts {
			fmt.Printf("  node %3d  label=%-8q  verdict=%s\n", v, l.Labels[v], vd)
		}
	}
	switch {
	case out.Err != nil:
		fmt.Printf("globally UNDECIDED: %v\n", out.Err)
	case out.Accepted:
		fmt.Println("globally ACCEPTED (all nodes yes)")
	default:
		fmt.Printf("globally REJECTED (%s)\n", rejected)
	}
}

// printShardedStats reports the halo-exchange accounting of a sharded-mp
// run: shard count, imported ghost nodes, and encoded boundary-view bytes,
// with per-round breakdowns. No-op for every other backend.
func printShardedStats(s engine.Stats) {
	if s.Shards == 0 {
		return
	}
	fmt.Printf("sharded: shards=%d ghostNodes=%d haloBytes=%d\n", s.Shards, s.GhostNodes, s.HaloBytes)
	for r := range s.RoundHaloBytes {
		fmt.Printf("  round %d: ghostNodes=%d haloBytes=%d\n", r, s.RoundGhostNodes[r], s.RoundHaloBytes[r])
	}
}

// partitionStrategyFor picks the sharded runtime's partition strategy by
// graph family: the level-ordered families (pyramids, layered trees) shard
// into level-contiguous id ranges, everything else into BFS-discovery
// blocks.
func partitionStrategyFor(graphKind string) graph.PartitionStrategy {
	switch graphKind {
	case "pyramid", "tree":
		return graph.PartitionLevelContiguous
	default:
		return graph.PartitionBFSBlocked
	}
}

func buildScheduler(name string, shards int, graphKind string) (engine.Scheduler, error) {
	if shards > 0 {
		return engine.ShardedMPPartitioned(shards, partitionStrategyFor(graphKind)), nil
	}
	switch name {
	case "sequential":
		return engine.Sequential, nil
	case "sharded":
		return engine.Sharded, nil
	case "mp":
		return engine.MessagePassing, nil
	default:
		return nil, fmt.Errorf("unknown backend %q", name)
	}
}
