// Command benchgate runs the benchmarks behind CI's performance contracts
// and checks every contract against the same run.
//
// Each contract is a row of the gates table below: a benchmark's value in
// one unit (ns/op, allocs/op or a b.ReportMetric unit), divided by a
// reference benchmark's value in the same unit when the row names one, must
// lie within the row's bounds. A group's rows read the per-benchmark minima
// over the group's own go test runs, so both operands of a ratio come from
// one run on one machine and runner speed cancels. No recorded artifact is
// read.
//
// Usage, from the module root:
//
//	go run ./scripts/benchgate
//
// It runs every group, prints each row's value and bounds (a ratio with
// both of its operands), and exits 1 naming every row that broke. A
// benchmark or unit missing from a group's output breaks its row.
package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// run is one go test invocation. Its flags fix how the benchmarks are
// measured, and a row's bound holds only for values measured that way.
type run struct {
	pkg, bench, benchtime string
	count                 int
	benchmem              bool
}

// row is one contract: bench's value in unit, divided by ref's when ref is
// set, must be at least min and at most max where they are set.
type row struct {
	bench, ref, unit string
	min, max         *float64
}

// group is the go test runs that produce one set of results, and the rows
// checked against them.
type group struct {
	name string
	runs []run
	rows []row
}

func bound(v float64) *float64 { return &v }

// gates is every benchmark contract CI checks. Four bounds carry a ratio
// that BENCH_3.json or BENCH_6.json recorded on older hardware: a check of
// cur/base ≤ tol is the check cur ≤ tol·base, so the row's max is the
// recorded ratio times the tolerance, rounded down.
var gates = []group{
	{
		name: "dedup",
		runs: []run{{pkg: "./internal/engine/", bench: "BenchmarkDedup/expensive", benchtime: "20x", count: 3}},
		rows: []row{
			// Deciding each distinct view once must stay a large win over
			// deciding every node: at most 0.4x of the no-dedup arm, a
			// retained ≥2.5x speedup.
			{bench: "BenchmarkDedup/expensive/dedup", ref: "BenchmarkDedup/expensive/no-dedup", unit: "ns/op", max: bound(0.4)},
		},
	},
	{
		name: "pyramid",
		runs: []run{
			{pkg: "./internal/tree/", bench: "BenchmarkNewPyramid/h=10", benchtime: "3x", count: 3},
			{pkg: "./internal/graph/", bench: "BenchmarkConstructCycle/n=1000000/builder", benchtime: "3x", count: 3},
		},
		rows: []row{
			// Arithmetic coordinate indexing must keep NewPyramid(10) at
			// graph-freeze speed, normalised by the builder's n=10^6 cycle
			// freeze, which coordinate indexing does not touch. The
			// map-indexed pyramid ran at 52.5228x the builder (BENCH_3.json),
			// and at most 6% of that keeps the ≥20x speedup with margin:
			// 52.5228 × 0.06 = 3.1514, rounded down.
			{bench: "BenchmarkNewPyramid/h=10", ref: "BenchmarkConstructCycle/n=1000000/builder", unit: "ns/op", max: bound(3.151)},
		},
	},
	{
		name: "bfs",
		runs: []run{{pkg: "./internal/graph/",
			bench:     "BenchmarkTraversalBFS/cycle/n=1000000|BenchmarkBFSLarge/cycle/n=1000000|BenchmarkConstructCycle/n=1000000/builder",
			benchtime: "5x", count: 2, benchmem: true}},
		rows: []row{
			// The wrapper BFS at n=10^6 must stay well below its
			// per-call-allocating form, which ran at 1.35710x the builder
			// (BENCH_3.json); at most 60% of that keeps ≥1.7x:
			// 1.35710 × 0.6 = 0.81426, rounded down.
			{bench: "BenchmarkBFSLarge/cycle/n=1000000", ref: "BenchmarkConstructCycle/n=1000000/builder", unit: "ns/op", max: bound(0.8142)},
			// The Traversal scratch BFS allocates nothing in steady state.
			{bench: "BenchmarkTraversalBFS/cycle/n=1000000", unit: "allocs/op", max: bound(0)},
		},
	},
	{
		name: "trials",
		runs: []run{{pkg: "./internal/halting/", bench: "BenchmarkTrialThroughput", benchtime: "5x", count: 3}},
		rows: []row{
			// Two contracts on the trial engine against the in-tree replica
			// of the sequential trial loop, on E10's family at 200 trials.
			// It must hold ≥4x (at most 0.25x). And with every trial under
			// panic recovery, the fault-free path may cost at most 5% over
			// the pre-hook ratio, 0.176859 (BENCH_6.json):
			// 0.176859 × 1.05 = 0.18570, rounded down. The second is the
			// tighter, so it alone is checked.
			{bench: "BenchmarkTrialThroughput/engine", ref: "BenchmarkTrialThroughput/seqloop", unit: "ns/op", max: bound(0.1857)},
		},
	},
	{
		name: "miss",
		// Each row reads the median engine/replica ratio of 15 pairs, timed
		// back to back in one benchmark: the minimum of three 5-iteration
		// runs per arm, divided, spread by a third on a shared runner.
		runs: []run{{pkg: "./internal/engine/", bench: "BenchmarkDedupMiss/(cycle512-r16|grid20x20-r3)/paired", benchtime: "15x", count: 1}},
		rows: []row{
			// Three contracts on the canonical-code miss path against the
			// in-tree replica of the generic pipeline, on the cycle's
			// fast-path views. It must hold ≥3x (at most 0.333x). The
			// persist-hook and bounded-capacity plumbing may not push it
			// past 0.2x (the pre-store code read 0.11–0.135x). And the
			// fault-injection hooks may cost at most 5% over the pre-hook
			// ratio, 0.139881 (BENCH_6.json): 0.139881 × 1.05 = 0.14688,
			// rounded down. The last is the tightest, so it alone is
			// checked.
			{bench: "BenchmarkDedupMiss/cycle512-r16/paired", unit: "engine/replica", max: bound(0.1468)},
			// The grid's radius-3 views take the generic tier, where the
			// cell-local refinement must stay at or below 0.6x the replica
			// (the radix refinement read 0.65–1.13x).
			{bench: "BenchmarkDedupMiss/grid20x20-r3/paired", unit: "engine/replica", max: bound(0.6)},
		},
	},
	{
		name: "hitrate",
		runs: []run{{pkg: "./internal/engine/", bench: "BenchmarkBoundedCacheHitRate", benchtime: "1x", count: 1}},
		rows: []row{
			// Eviction may cost capacity, never the steady-state regime: on
			// the periodic-cycle family the bounded cache keeps ≥95% of the
			// hit rate of the default-budget cache, which never evicts
			// there. The rate is deterministic, so one iteration suffices.
			// The default-budget arm hits at least as often as the bounded
			// one, so the max breaks only when that arm's rate falls below
			// a hundredth of the bounded arm's.
			{bench: "BenchmarkBoundedCacheHitRate/bounded", ref: "BenchmarkBoundedCacheHitRate/unbounded", unit: "hitrate", min: bound(0.95), max: bound(100)},
		},
	},
	{
		name: "steady",
		runs: []run{{pkg: "./cmd/decided/", bench: "BenchmarkStoreSteadyOverhead", benchtime: "1x", count: 3}},
		rows: []row{
			// The write-behind persist hook must cost the warm eval path
			// nothing: the median per-pair ratio of store-backed to
			// store-free sweeps, interleaved pair by pair, stays ≤1.05.
			{bench: "BenchmarkStoreSteadyOverhead", unit: "overhead", max: bound(1.05)},
		},
	},
	{
		name: "incremental",
		runs: []run{{pkg: "./internal/engine/", bench: "BenchmarkIncrementalVsScratch", benchtime: "10x", count: 3}},
		rows: []row{
			// A resident session absorbs an edge update on the n=10^5
			// cycle at horizon 16 for at most 0.1x a from-scratch
			// re-evaluation (about 66 dirty nodes against 10^5).
			{bench: "BenchmarkIncrementalVsScratch/cycle100k-r16/incremental", ref: "BenchmarkIncrementalVsScratch/cycle100k-r16/scratch", unit: "ns/op", max: bound(0.1)},
		},
	},
	{
		name: "mpcycle",
		runs: []run{{pkg: "./internal/engine/", bench: "BenchmarkMPCycle", benchtime: "1x", count: 2, benchmem: true}},
		rows: []row{
			// The sharded halo exchange must hold ≥2x over per-node
			// flooding on the uniform n=10^5 cycle at horizon 8.
			{bench: "BenchmarkMPCycle/sharded", ref: "BenchmarkMPCycle/legacy", unit: "ns/op", max: bound(0.5)},
			// Each shard builds its sub-host in buffers sized before they
			// are filled. Filled by append instead, whose growth falls to
			// about 1.25x on large slices, the same run allocated
			// 18.2–22.3 MB per op at -cpu 1 to 16, against 10.1–11.0 MB
			// for the sized form.
			{bench: "BenchmarkMPCycle/sharded", unit: "B/op", max: bound(16e6)},
			// Flooding assembles every node's view in its decide worker's
			// reused buffers and binds the sub-host in place: about 2,100
			// allocations per evaluation of 10^5 nodes, where a BuildCSR
			// per node made 302,000.
			{bench: "BenchmarkMPCycle/legacy", unit: "allocs/op", max: bound(10000)},
		},
	},
	{
		name: "mppyramid",
		runs: []run{{pkg: "./internal/engine/", bench: "BenchmarkMPPyramid", benchtime: "3x", count: 1, benchmem: true}},
		rows: []row{
			// Two level-contiguous shards of the h=8 pyramid import 54,911
			// ghosts into records sized from the ring schedule, with one
			// row arena per ring: about 670 allocations per evaluation,
			// where a row allocation per ghost made 55,600.
			{bench: "BenchmarkMPPyramid/sharded", unit: "allocs/op", max: bound(2000)},
		},
	},
	{
		name: "mpround",
		runs: []run{{pkg: "./internal/engine/", bench: "BenchmarkMPRound", benchtime: "3x", count: 1, benchmem: true}},
		rows: []row{
			// The round sweep merges into per-worker arenas, so a full
			// t-round gather on the n=512, t=4 cycle takes at most one
			// allocation per node (512), whatever the merge count.
			{bench: "BenchmarkMPRound", unit: "allocs/op", max: bound(512)},
		},
	},
}

// results maps a benchmark name, without its -GOMAXPROCS suffix, to the
// minimum it reported in each unit over every line of a run.
type results map[string]map[string]float64

// parse reads go test -bench output. A result line is the benchmark name,
// the iteration count, then value-unit pairs; other lines are skipped.
func parse(out string) results {
	res := results{}
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) < 4 || len(f)%2 != 0 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		if _, err := strconv.Atoi(f[1]); err != nil {
			continue
		}
		name := f[0]
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		for k := 2; k < len(f); k += 2 {
			v, err := strconv.ParseFloat(f[k], 64)
			if err != nil {
				continue
			}
			units := res[name]
			if units == nil {
				units = map[string]float64{}
				res[name] = units
			}
			// A NaN, once read, stays: it must break the row, not hide
			// behind a later reading.
			if prev, ok := units[f[k+1]]; !ok || v < prev || math.IsNaN(v) {
				units[f[k+1]] = v
			}
		}
	}
	return res
}

func (res results) value(bench, unit string) (float64, error) {
	units, ok := res[bench]
	if !ok {
		return 0, fmt.Errorf("%s is missing from the run", bench)
	}
	v, ok := units[unit]
	if !ok {
		return 0, fmt.Errorf("%s reported no %s", bench, unit)
	}
	return v, nil
}

func (r row) name() string {
	if r.ref == "" {
		return r.bench + " " + r.unit
	}
	return r.bench + " / " + r.ref + " " + r.unit
}

// check reads r from res. It returns the value with its bounds, and an
// error when the row broke: a value out of bounds or not a number, or an
// operand missing from res.
func (r row) check(res results) (string, error) {
	v, err := res.value(r.bench, r.unit)
	if err != nil {
		return "", err
	}
	got := fmt.Sprintf("%.5g", v)
	if r.ref != "" {
		ref, err := res.value(r.ref, r.unit)
		if err != nil {
			return "", err
		}
		if ref == 0 {
			return "", fmt.Errorf("reference %s reads 0 %s", r.ref, r.unit)
		}
		got = fmt.Sprintf("%.5g / %.5g = %.5g", v, ref, v/ref)
		v /= ref
	}
	if r.min != nil {
		got += fmt.Sprintf(", min %g", *r.min)
	}
	if r.max != nil {
		got += fmt.Sprintf(", max %g", *r.max)
	}
	// Negated comparisons, so that a NaN breaks the row.
	if r.min != nil && !(v >= *r.min) {
		return got, fmt.Errorf("%.5g below min %g", v, *r.min)
	}
	if r.max != nil && !(v <= *r.max) {
		return got, fmt.Errorf("%.5g above max %g", v, *r.max)
	}
	return got, nil
}

// measure runs g's go test invocations, echoing their output to stdout,
// and parses what they printed. A run that fails is reported, and the
// others still run.
func (g group) measure() (results, error) {
	var out bytes.Buffer
	var errs []error
	for _, r := range g.runs {
		args := []string{"test", "-run", "^$", "-bench", r.bench, "-benchtime", r.benchtime, "-count", strconv.Itoa(r.count)}
		if r.benchmem {
			args = append(args, "-benchmem")
		}
		args = append(args, r.pkg)
		fmt.Printf("benchgate: %s: go %s\n", g.name, strings.Join(args, " "))
		cmd := exec.Command("go", args...)
		cmd.Stdout = io.MultiWriter(os.Stdout, &out)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			errs = append(errs, fmt.Errorf("go test %s: %w", r.pkg, err))
		}
	}
	return parse(out.String()), errors.Join(errs...)
}

func main() {
	var report, broke []string
	for _, g := range gates {
		res, err := g.measure()
		if err != nil {
			broke = append(broke, fmt.Sprintf("group %s: %v", g.name, err))
		}
		for _, r := range g.rows {
			got, err := r.check(res)
			status := "ok  "
			if err != nil {
				status = "FAIL"
				if got != "" {
					got += "; "
				}
				got += err.Error()
				broke = append(broke, r.name())
			}
			report = append(report, fmt.Sprintf("%s %s: %s", status, r.name(), got))
		}
	}
	fmt.Println("\nbenchgate:")
	for _, line := range report {
		fmt.Println(line)
	}
	if len(broke) > 0 {
		fmt.Fprintf(os.Stderr, "benchgate: FAIL — %d broke:\n", len(broke))
		for _, b := range broke {
			fmt.Fprintln(os.Stderr, "  "+b)
		}
		os.Exit(1)
	}
	fmt.Printf("benchgate: OK — %d rows held\n", len(report))
}
