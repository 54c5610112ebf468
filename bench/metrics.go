package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
)

// metricDef names one reported metric and its unit. The two lists below are
// the metric sections of BENCHMARK.json (a test keeps them equal).
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run. Every workload reports all of
// them; what counts as one answer is per workload (see README.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ref", "ref_loops"},
	{"rss_peak_mb", "MB"},
}

// perLayer are the metrics of a traced run. Every workload reports all of
// them; a layer the workload does not cross reads 0.
var perLayer = []metricDef{
	{"trace.overhead", "ratio"},
	{"calib.ref_loop_ms", "ms"},
	{"answer.latency_p50_ms", "ms"},
	{"answer.latency_p10_ms", "ms"},
	{"answer.latency_p99_ms", "ms"},
	{"answer.work_per_s", "1/s"},

	{"graph.build_s", "s"},
	{"graph.extract_ns_per_view", "ns"},
	{"graph.rawcode_ns_per_view", "ns"},
	{"graph.canon_fast_ns_per_view", "ns"},
	{"graph.canon_generic_ns_per_view", "ns"},
	{"graph.canon_fast_share", "ratio"},
	{"graph.partition_s", "s"},
	{"graph.apply_update_ns", "ns"},
	{"graph.dirty_ball_ns", "ns"},

	{"engine.raw_hit_ratio", "ratio"},
	{"engine.canon_hit_ratio", "ratio"},
	{"engine.miss_ratio", "ratio"},
	{"engine.evictions", "count"},
	{"engine.cache_bytes", "bytes"},
	{"engine.decide_ns_per_call", "ns"},
	{"engine.decide_calls_per_node", "ratio"},
	{"engine.self_share", "ratio"},
	{"engine.sharded_speedup", "ratio"},

	{"mp.rounds", "count"},
	{"mp.flood_messages", "count"},
	{"mp.flood_knowledge_units", "count"},
	{"mp.halo_bytes", "bytes"},
	{"mp.ghost_nodes", "count"},
	{"mp.halo_bytes_per_node", "bytes"},
	{"mp.flood_share", "ratio"},
	{"mp.decide_busy_share", "ratio"},

	{"incremental.dirty_per_update", "count"},
	{"incremental.evaluated_per_update", "count"},
	{"incremental.repair_share", "ratio"},
	{"incremental.apply_p50_us", "us"},
	{"incremental.apply_p99_us", "us"},

	{"store.recover_s", "s"},
	{"store.replay_s", "s"},
	{"store.replay_evictions", "count"},
	{"store.appended", "count"},
	{"store.queue_drops", "count"},

	{"decided.server_eval_mean_ms", "ms"},
	{"decided.server_trials_mean_ms", "ms"},
	{"decided.http_overhead_ms", "ms"},
	{"decided.client_p50_ms", "ms"},
	{"decided.client_p99_ms", "ms"},
	{"decided.rejected_429", "count"},
	{"decided.deadline_exceeded", "count"},

	{"exp.E1_s", "s"}, {"exp.E2_s", "s"}, {"exp.E3_s", "s"}, {"exp.E4_s", "s"},
	{"exp.E5_s", "s"}, {"exp.E6_s", "s"}, {"exp.E7_s", "s"}, {"exp.E8_s", "s"},
	{"exp.E9_s", "s"}, {"exp.E10_s", "s"}, {"exp.E11_s", "s"}, {"exp.E12_s", "s"},
	{"exp.E13_s", "s"}, {"exp.E14_s", "s"}, {"exp.E15_s", "s"}, {"exp.E16_s", "s"},
}

// report collects one workload run: the checked operations and every metric
// value with the number of samples behind it.
type report struct {
	attempted, failed int
	values            map[string]float64
	samples           map[string]int
}

func newReport() *report {
	return &report{values: map[string]float64{}, samples: map[string]int{}}
}

// set records a metric value and its sample count.
func (r *report) set(name string, v float64, samples int) {
	r.values[name] = v
	r.samples[name] = samples
}

// check counts one operation whose output was compared with its reference.
func (r *report) check(ok bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
}

// metricOut is one metric of the result line.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the JSON object a run prints as its last line of output.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// result turns the report into its result line: the end-to-end metrics of an
// untraced run, or the per-layer metrics of a traced one. An end-to-end
// metric the workload failed to measure is an error; a per-layer metric the
// workload does not exercise reads 0.
func (r *report) result(traced bool) (resultLine, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	out := resultLine{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricOut, len(defs)),
	}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return out, fmt.Errorf("metric %s is not finite", d.name)
		}
		if !traced && (!ok || v <= 0) {
			return out, fmt.Errorf("end-to-end metric %s was not measured", d.name)
		}
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	return out, nil
}

// samplesPrefix marks the output line carrying per-metric sample counts.
const samplesPrefix = "#samples "

// write prints the sample counts and, last, the result line.
func (r *report) write(w io.Writer, traced bool) error {
	res, err := r.result(traced)
	if err != nil {
		return err
	}
	counts, _ := json.Marshal(r.samples)
	fmt.Fprintf(w, "%s%s\n", samplesPrefix, counts)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// quantile is the q-quantile of xs by linear interpolation between closest
// ranks; xs is not modified. It is 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns the first and third quartile of xs exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), which is how run-to-run spread is judged. xs needs two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	ld := len(s)
	m := ld + 1
	at := func(i int) float64 {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the quartile distance of xs as a share of its median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	med := median(xs)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

// peakRSSMB reads the peak resident set size (VmHWM) of a process, in MiB;
// pid 0 means this process.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = "/proc/" + strconv.Itoa(pid) + "/status"
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("parse %s: %w", path, err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM line in %s", path)
}
