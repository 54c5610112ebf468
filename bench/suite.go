package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// suiteRun is the results file of one run over every workload.
type suiteRun struct {
	Seed       int64                  `json:"seed"`
	Nproc      int                    `json:"nproc"`
	GOMAXPROCS int                    `json:"gomaxprocs"`
	Seconds    float64                `json:"seconds"`
	Trace      bool                   `json:"trace"`
	GoVersion  string                 `json:"go"`
	Workloads  map[string]workloadRun `json:"workloads"`
}

// workloadRun is one workload's result line plus its sample counts and how
// long its process ran.
type workloadRun struct {
	resultLine
	Samples map[string]int `json:"samples"`
	WallS   float64        `json:"wall_s"`
}

// runSuite runs every workload, each in a child process of its own so memory
// and collector state never carry over from one workload to the next.
func runSuite(stdout, stderr io.Writer, o options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	run := suiteRun{
		Seed: o.seed, Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seconds: o.seconds, Trace: o.trace, GoVersion: runtime.Version(),
		Workloads: map[string]workloadRun{},
	}
	failed := 0
	for _, w := range workloads() {
		args := []string{
			"-workload", w.name, "-seed", strconv.FormatInt(o.seed, 10),
			"-seconds", strconv.FormatFloat(o.seconds, 'f', -1, 64),
			"-trace", map[bool]string{false: "0", true: "1"}[o.trace],
			"-decided", o.decided, "-workdir", o.workdir, "-spans", o.spans,
		}
		cmd := exec.Command(self, args...)
		var out bytes.Buffer
		cmd.Stdout = &out
		cmd.Stderr = stderr
		begin := time.Now()
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("workload %s: %w", w.name, err)
		}
		wr, err := parseChildOutput(out.Bytes())
		if err != nil {
			return fmt.Errorf("workload %s: %w", w.name, err)
		}
		wr.WallS = time.Since(begin).Seconds()
		run.Workloads[w.name] = wr
		if !wr.Correct {
			failed++
		}
		fmt.Fprintf(stdout, "%-10s %s\n", w.name, summarize(wr))
	}
	data, err := json.MarshalIndent(run, "", "  ")
	if err != nil {
		return err
	}
	if o.out == "" {
		fmt.Fprintf(stdout, "%s\n", data)
	} else if err := os.WriteFile(o.out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("%d workload(s) produced wrong outputs", failed)
	}
	return nil
}

// parseChildOutput reads a workload process's sample counts and result line.
func parseChildOutput(out []byte) (workloadRun, error) {
	var wr workloadRun
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if s, ok := strings.CutPrefix(line, samplesPrefix); ok {
			if err := json.Unmarshal([]byte(s), &wr.Samples); err != nil {
				return wr, fmt.Errorf("sample counts: %w", err)
			}
		}
		if line != "" {
			last = line
		}
	}
	if err := json.Unmarshal([]byte(last), &wr.resultLine); err != nil {
		return wr, fmt.Errorf("result line %q: %w", last, err)
	}
	return wr, nil
}

// summarize renders a workload run on one line.
func summarize(wr workloadRun) string {
	var b strings.Builder
	fmt.Fprintf(&b, "correct=%v attempted=%d failed=%d wall=%.1fs", wr.Correct, wr.Attempted, wr.Failed, wr.WallS)
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if m, ok := wr.Metrics[d.name]; ok {
			fmt.Fprintf(&b, " %s=%.4g %s", d.name, m.Value, d.unit)
		}
	}
	return b.String()
}

// spec is the part of BENCHMARK.json the comparison reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// loadRuns reads every results file in dir (or the one file dir names).
func loadRuns(dir string) ([]suiteRun, error) {
	paths := []string{dir}
	if info, err := os.Stat(dir); err != nil {
		return nil, err
	} else if info.IsDir() {
		if paths, err = filepath.Glob(filepath.Join(dir, "*.json")); err != nil {
			return nil, err
		}
	}
	var runs []suiteRun
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r suiteRun
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if len(r.Workloads) > 0 {
			runs = append(runs, r)
		}
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("no results files in %s", dir)
	}
	return runs, nil
}

// Verdicts of one (metric, workload) pair, worst last.
const (
	unchanged  = "unchanged"
	improved   = "improved"
	unresolved = "unresolved"
	regressed  = "regressed"
)

var verdictRank = map[string]int{unchanged: 0, improved: 1, unresolved: 2, regressed: 3}

// judge classifies B against base A under a bound. The pair is unresolved
// when either side's run-to-run spread (quartile distance over median) is
// wider than the bound, unless every B run beats every A run.
func judge(a, b []float64, lowerBetter bool, bound float64) (verdict string, ratio float64) {
	medA, medB := median(a), median(b)
	ratio = medB / medA
	worse := ratio - 1
	if !lowerBetter {
		worse = 1 - ratio
	}
	better := func(x, y float64) bool {
		if lowerBetter {
			return x < y
		}
		return x > y
	}
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			if !better(x, y) {
				allBetter = false
			}
		}
	}
	switch {
	case max(spread(a), spread(b)) > bound && !allBetter:
		return unresolved, ratio
	case worse > bound:
		return regressed, ratio
	case -worse > bound:
		return improved, ratio
	default:
		return unchanged, ratio
	}
}

// runCompare prints one row per workload comparing the runs in b with the
// base runs in a under the bounds of the benchmark definition.
func runCompare(stdout io.Writer, specPath, a, b string) error {
	data, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	runsA, err := loadRuns(a)
	if err != nil {
		return err
	}
	runsB, err := loadRuns(b)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "base %s (%d runs) vs %s (%d runs); ratio = median / base median\n", a, len(runsA), b, len(runsB))
	values := func(runs []suiteRun, workload, metric string) []float64 {
		var xs []float64
		for _, r := range runs {
			if m, ok := r.Workloads[workload].Metrics[metric]; ok {
				xs = append(xs, m.Value)
			}
		}
		return xs
	}
	regressions := 0
	for _, w := range sp.Workloads {
		row := unchanged
		var cells []string
		for _, m := range sp.EndToEnd {
			xa, xb := values(runsA, w.Name, m.Name), values(runsB, w.Name, m.Name)
			if len(xa) == 0 || len(xb) == 0 {
				return fmt.Errorf("%s/%s: missing from the results", w.Name, m.Name)
			}
			v, ratio := judge(xa, xb, m.Better == "lower", m.Bound)
			if verdictRank[v] > verdictRank[row] {
				row = v
			}
			cells = append(cells, fmt.Sprintf("%s %.3f× of %.4g %s (spread %.1f%%/%.1f%%, bound %.0f%%) %s",
				m.Name, ratio, median(xa), m.Unit, 100*spread(xa), 100*spread(xb), 100*m.Bound, v))
		}
		if row == regressed {
			regressions++
		}
		fmt.Fprintf(stdout, "%-10s %-10s %s\n", w.Name, row, strings.Join(cells, "; "))
	}
	if regressions > 0 {
		return errors.New("regressions found")
	}
	return nil
}
