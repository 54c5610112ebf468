package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

// decidedBin is the decided binary the serve workload starts, built once by
// TestMain.
var decidedBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "bench-test-")
	if err != nil {
		panic(err)
	}
	decidedBin = filepath.Join(dir, "decided")
	build := exec.Command("go", "build", "-o", decidedBin, "repro/cmd/decided")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		os.RemoveAll(dir)
		panic("build decided: " + err.Error())
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestWorkloadsTiny runs every workload at a tiny size with a fixed number
// of answers per window, traced — which also runs the untraced half — and
// checks that outputs are correct and every metric is reported.
func TestWorkloadsTiny(t *testing.T) {
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			e := tinyEnv(t, 3)
			e.traced, e.tr = true, newTracer()
			begin := time.Now()
			if err := e.execute(w); err != nil {
				t.Fatal(err)
			}
			t.Logf("%s took %v", w.name, time.Since(begin))
			if e.rep.failed != 0 || e.rep.attempted == 0 {
				t.Fatalf("%d of %d checked operations failed", e.rep.failed, e.rep.attempted)
			}
			for _, traced := range []bool{false, true} {
				res, err := e.rep.result(traced)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct {
					t.Fatalf("result line not correct: %+v", res)
				}
			}
			if e.rep.values["trace.overhead"] <= 0 {
				t.Fatal("trace.overhead not measured")
			}
		})
	}
}

// tinyEnv is an untraced tiny run with two answers per window.
func tinyEnv(t *testing.T, seed int64) *env {
	e := newEnv(seed)
	e.ops, e.tiny = 2, true
	e.decided, e.workdir = decidedBin, t.TempDir()
	return e
}

// TestInputsSeeded checks that every input a run uses is a function of the
// seed: one seed gives identical inputs twice, another seed different ones.
func TestInputsSeeded(t *testing.T) {
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			var sums []uint64
			for _, seed := range []int64{1, 1, 2} {
				e := tinyEnv(t, seed)
				if err := e.execute(w); err != nil {
					t.Fatal(err)
				}
				sums = append(sums, uint64(e.in))
			}
			if sums[0] != sums[1] {
				t.Errorf("seed 1 hashed %x, then %x", sums[0], sums[1])
			}
			if sums[0] == sums[2] {
				t.Errorf("seeds 1 and 2 hash alike (%x)", sums[0])
			}
		})
	}
}

// TestMetricsMatchDefinition keeps the workloads and metric lists in step
// with BENCHMARK.json.
func TestMetricsMatchDefinition(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name, Unit string
	}
	var spec struct {
		Workloads []def `json:"workloads"`
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var ws []def
	for _, w := range workloads() {
		ws = append(ws, def{Name: w.name})
	}
	if !slices.Equal(spec.Workloads, ws) {
		t.Errorf("workloads differ:\nBENCHMARK.json %v\nbench          %v", spec.Workloads, ws)
	}
	for _, c := range []struct {
		section string
		got     []def
		want    []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		var want []def
		for _, d := range c.want {
			want = append(want, def{Name: d.name, Unit: d.unit})
		}
		if !slices.Equal(c.got, want) {
			t.Errorf("%s differs:\nBENCHMARK.json %v\nbench          %v", c.section, c.got, want)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{4, 1, 3, 2}, 1.25, 3.75},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, 27.5, 82.5},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; Python gives %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestJudge(t *testing.T) {
	base := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		b           []float64
		lowerBetter bool
		want        string
	}{
		{[]float64{101, 100, 102, 101, 100}, true, unchanged},
		{[]float64{120, 121, 119, 120, 120}, true, regressed},
		{[]float64{120, 121, 119, 120, 120}, false, improved},
		{[]float64{80, 130, 100, 70, 125}, true, unresolved},
	} {
		if got, _ := judge(base, c.b, c.lowerBetter, 0.1); got != c.want {
			t.Errorf("judge(%v, lowerBetter=%v) = %s, want %s", c.b, c.lowerBetter, got, c.want)
		}
	}
}
