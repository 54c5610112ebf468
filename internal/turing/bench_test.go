package turing

import (
	"fmt"
	"testing"
)

// Ablation benches for DESIGN.md §5: fragment enumeration by constraint
// propagation (rows derived from the window relation) versus the naive
// bound, plus table construction and checking costs.

func BenchmarkEnumerateFragments(b *testing.B) {
	for _, m := range []*Machine{HaltWith('0'), BusyBeaverish()} {
		b.Run(m.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res := EnumerateFragments(m, 3, 3, 0)
				if res.Truncated {
					b.Fatal("unexpected truncation")
				}
			}
		})
	}
}

func BenchmarkEnumerateFragmentsNaiveBound(b *testing.B) {
	// The naive enumeration would range over |domain|^9 labellings and
	// filter; the propagation-based enumerator explores |domain|^3 x
	// (branching) states. This bench quantifies the explored-state count
	// rather than timing the (intractable) naive loop.
	m := BusyBeaverish()
	res := EnumerateFragments(m, 3, 3, 0)
	naive := 1
	for i := 0; i < 9; i++ {
		naive *= len(cellDomain(m))
	}
	b.ReportMetric(float64(res.TotalExplored), "explored-states")
	b.ReportMetric(float64(naive), "naive-states")
	for i := 0; i < b.N; i++ {
		EnumerateFragments(m, 3, 3, 0)
	}
}

func BenchmarkBuildTable(b *testing.B) {
	for _, k := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("counter-%d", k), func(b *testing.B) {
			m := Counter(k, '0')
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := BuildTable(m, 10*k+10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTableCheck(b *testing.B) {
	tab, err := BuildTable(Counter(32, '0'), 1000)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tab.Check(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunInPlace(b *testing.B) {
	// The in-place simulator vs the copying Step path (the fix that took
	// identifier-scaled budgets from quadratic to linear).
	m := Zigzag()
	b.Run("run-in-place", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Run(m, 2000); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("step-copying", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := StartConfig()
			for s := 0; s < 2000; s++ {
				next, err := c.Step(m)
				if err != nil {
					b.Fatal(err)
				}
				c = next
			}
		}
	})
}

// BenchmarkRunMemoBudgets prices E8's identifier decider on the looper's
// 12-cycle under identifiers 10^6…10^6+11: a fresh memo answering those
// budgets in a fixed shuffled order against one direct run to the largest.
// The memo continues its one run to each larger budget, so the two arms
// simulate the same steps; a memo that re-ran from scratch per budget
// would read about 12x the run arm.
func BenchmarkRunMemoBudgets(b *testing.B) {
	const base = 1000000
	order := []int{7, 2, 11, 0, 5, 9, 3, 10, 1, 6, 8, 4}
	m := Looper()
	b.Run("memo", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			memo := NewRunMemo(m)
			for _, k := range order {
				if res, err := memo.Run(base + k); err != nil || res.Halted {
					b.Fatalf("budget %d: %+v, %v", base+k, res, err)
				}
			}
		}
	})
	b.Run("run", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if res, err := Run(m, base+len(order)-1); err != nil || res.Halted {
				b.Fatalf("%+v, %v", res, err)
			}
		}
	})
}
