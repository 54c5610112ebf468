package main

import (
	"strings"
	"testing"
)

// canned is go test -bench output as a -count 2 -benchmem run on two CPUs
// prints it: a -GOMAXPROCS suffix on every name, B/op and allocs/op
// columns, a b.ReportMetric unit, and the lines around the results.
const canned = `goos: linux
goarch: amd64
pkg: repro/internal/engine
cpu: Intel(R) Xeon(R) Processor
BenchmarkArm/engine-2         	       5	   1200000 ns/op	      0.9000 hitrate	   4096 B/op	      12 allocs/op
BenchmarkArm/engine-2         	       5	   1000000 ns/op	      0.8500 hitrate	   4000 B/op	      14 allocs/op
BenchmarkArm/replica-2        	       5	   8000000 ns/op	      0.9500 hitrate	  65536 B/op	     300 allocs/op
BenchmarkArm/replica-2        	       5	  10000000 ns/op	      1.000 hitrate	  60000 B/op	     310 allocs/op
BenchmarkSolo/cycle512-r16-2  	       3	      2.5e+06 ns/op	       0 B/op	       0 allocs/op
BenchmarkSolo/cycle512-r16-2  	       3	      2.4e+06 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	repro/internal/engine	1.234s
`

func TestParseMinimaPerUnit(t *testing.T) {
	res := parse(canned)
	want := map[string]map[string]float64{
		"BenchmarkArm/engine":        {"ns/op": 1000000, "hitrate": 0.85, "B/op": 4000, "allocs/op": 12},
		"BenchmarkArm/replica":       {"ns/op": 8000000, "hitrate": 0.95, "B/op": 60000, "allocs/op": 300},
		"BenchmarkSolo/cycle512-r16": {"ns/op": 2.4e6, "B/op": 0, "allocs/op": 0},
	}
	if len(res) != len(want) {
		t.Fatalf("parsed %d benchmarks, want %d: %v", len(res), len(want), res)
	}
	for bench, units := range want {
		if len(res[bench]) != len(units) {
			t.Errorf("%s: parsed units %v, want %v", bench, res[bench], units)
		}
		for unit, v := range units {
			if got, ok := res[bench][unit]; !ok || got != v {
				t.Errorf("%s %s = %v (present %v), want %v", bench, unit, got, ok, v)
			}
		}
	}
}

func TestRowCheck(t *testing.T) {
	res := parse(canned)
	for _, tc := range []struct {
		name string
		r    row
		fail string // substring of the error; empty means the row holds
	}{
		{"ratio within max", row{bench: "BenchmarkArm/engine", ref: "BenchmarkArm/replica", unit: "ns/op", max: bound(0.125)}, ""},
		{"ratio above max", row{bench: "BenchmarkArm/engine", ref: "BenchmarkArm/replica", unit: "ns/op", max: bound(0.12)}, "above max"},
		{"ratio below min", row{bench: "BenchmarkArm/engine", ref: "BenchmarkArm/replica", unit: "hitrate", min: bound(0.95), max: bound(100)}, "below min"},
		{"value within min and max", row{bench: "BenchmarkArm/engine", unit: "hitrate", min: bound(0.85), max: bound(1)}, ""},
		{"zero allocs", row{bench: "BenchmarkSolo/cycle512-r16", unit: "allocs/op", max: bound(0)}, ""},
		{"allocs above max", row{bench: "BenchmarkArm/engine", unit: "allocs/op", max: bound(11)}, "above max"},
		{"missing benchmark", row{bench: "BenchmarkGone", unit: "ns/op", max: bound(1)}, "missing"},
		{"missing reference", row{bench: "BenchmarkArm/engine", ref: "BenchmarkGone", unit: "ns/op", max: bound(1)}, "missing"},
		{"missing unit", row{bench: "BenchmarkSolo/cycle512-r16", unit: "hitrate", max: bound(1)}, "no hitrate"},
		{"missing reference unit", row{bench: "BenchmarkArm/engine", ref: "BenchmarkSolo/cycle512-r16", unit: "hitrate", max: bound(1)}, "no hitrate"},
		{"zero reference", row{bench: "BenchmarkArm/engine", ref: "BenchmarkSolo/cycle512-r16", unit: "allocs/op", max: bound(1)}, "reads 0"},
	} {
		got, err := tc.r.check(res)
		switch {
		case tc.fail == "" && err != nil:
			t.Errorf("%s: row broke: %v (%s)", tc.name, err, got)
		case tc.fail != "" && err == nil:
			t.Errorf("%s: row held (%s), want an error containing %q", tc.name, got, tc.fail)
		case err != nil && !strings.Contains(err.Error(), tc.fail):
			t.Errorf("%s: error %q, want it to contain %q", tc.name, err, tc.fail)
		}
	}
	// A ratio prints both operands beside the bound.
	got, _ := row{bench: "BenchmarkArm/engine", ref: "BenchmarkArm/replica", unit: "ns/op", max: bound(0.125)}.check(res)
	if want := "1e+06 / 8e+06 = 0.125, max 0.125"; got != want {
		t.Errorf("ratio report %q, want %q", got, want)
	}
}

// A NaN is not a number any bound admits.
func TestRowCheckNaN(t *testing.T) {
	res := parse("BenchmarkOdd-2 1 5 ns/op NaN overhead\nBenchmarkOdd-2 1 4 ns/op 1 overhead\n")
	if _, err := (row{bench: "BenchmarkOdd", unit: "overhead", max: bound(1.05)}).check(res); err == nil {
		t.Error("a NaN reading passed its max")
	}
}

func TestGatesTable(t *testing.T) {
	for _, g := range gates {
		if len(g.runs) == 0 || len(g.rows) == 0 {
			t.Errorf("group %s: %d runs, %d rows", g.name, len(g.runs), len(g.rows))
		}
		for _, r := range g.runs {
			if r.pkg == "" || r.bench == "" || r.benchtime == "" || r.count < 1 {
				t.Errorf("group %s: incomplete run %+v", g.name, r)
			}
		}
		for _, r := range g.rows {
			if r.bench == "" || r.unit == "" {
				t.Errorf("group %s: row %q names no benchmark or unit", g.name, r.name())
			}
			if r.min == nil && r.max == nil {
				t.Errorf("group %s: row %q has no bound", g.name, r.name())
			}
			if r.min != nil && r.max != nil && *r.min > *r.max {
				t.Errorf("group %s: row %q has min %g above max %g", g.name, r.name(), *r.min, *r.max)
			}
		}
	}
}
