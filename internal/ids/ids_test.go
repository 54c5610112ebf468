package ids

import (
	"testing"
	"testing/quick"
)

func TestBounds(t *testing.T) {
	tests := []struct {
		b    Bound
		n    int
		want int
	}{
		{Linear(1), 5, 5},
		{Linear(3), 5, 15},
		{Quadratic(), 4, 20},
		{Exponential(), 5, 32},
		{Exponential(), 0, 1},
	}
	for _, tc := range tests {
		if got := tc.b.F(tc.n); got != tc.want {
			t.Errorf("%s: F(%d) = %d, want %d", tc.b.Name(), tc.n, got, tc.want)
		}
	}
}

func TestInverseF(t *testing.T) {
	// f(n) = 2n. f^-1(i) = smallest j with f(j) > i.
	b := Linear(2)
	tests := []struct{ i, want int }{
		{0, 1}, // f(1)=2 > 0
		{1, 1}, // f(1)=2 > 1
		{2, 2}, // f(1)=2 <= 2, f(2)=4 > 2
		{7, 4}, // f(3)=6 <= 7, f(4)=8 > 7
		{8, 5}, // f(4)=8 <= 8
		{100, 51},
	}
	for _, tc := range tests {
		if got := InverseF(b, tc.i); got != tc.want {
			t.Errorf("InverseF(2n, %d) = %d, want %d", tc.i, got, tc.want)
		}
	}
}

func TestInverseFProperty_Quick(t *testing.T) {
	b := Quadratic()
	property := func(raw uint16) bool {
		i := int(raw % 5000)
		j := InverseF(b, i)
		// j is the smallest index with f(j) > i.
		return b.F(j) > i && (j == 1 || b.F(j-1) <= i)
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSequential(t *testing.T) {
	ids := Sequential(4)
	for i, id := range ids {
		if id != i {
			t.Fatalf("Sequential(4) = %v", ids)
		}
	}
	from := SequentialFrom(3, 10)
	if from[0] != 10 || from[2] != 12 {
		t.Fatalf("SequentialFrom = %v", from)
	}
	if err := Valid(ids, Linear(1)); err != nil {
		t.Errorf("sequential ids should satisfy f(n)=n: %v", err)
	}
}

func TestRandomBounded(t *testing.T) {
	for _, tc := range []struct {
		n int
		b Bound
	}{
		{1, Linear(1)},
		{8, Linear(1)},   // dense: permutation path
		{8, Quadratic()}, // sparse: rejection path
		{20, Exponential()},
	} {
		ids := RandomBounded(tc.n, tc.b, 99)
		if len(ids) != tc.n {
			t.Fatalf("n=%d: got %d ids", tc.n, len(ids))
		}
		if err := Valid(ids, tc.b); err != nil {
			t.Errorf("n=%d bound=%s: %v", tc.n, tc.b.Name(), err)
		}
		again := RandomBounded(tc.n, tc.b, 99)
		for i := range ids {
			if ids[i] != again[i] {
				t.Fatalf("RandomBounded not deterministic for fixed seed")
			}
		}
	}
}

func TestRandomUnbounded(t *testing.T) {
	ids := RandomUnbounded(10, 1000, 5)
	if err := Valid(ids, nil); err != nil {
		t.Fatal(err)
	}
	if len(ids) != 10 {
		t.Fatalf("got %d ids", len(ids))
	}
	// Scale < 1 is clamped.
	small := RandomUnbounded(3, 0, 5)
	if err := Valid(small, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAdversarial(t *testing.T) {
	b := Linear(2)
	ids := Adversarial(4, b) // f(4)=8: ids 7,6,5,4
	want := []int{7, 6, 5, 4}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("Adversarial = %v, want %v", ids, want)
		}
	}
	if err := Valid(ids, b); err != nil {
		t.Fatal(err)
	}
	// The key property for the paper's lower bounds: the maximum adversarial
	// identifier is f(n)-1, which grows with n.
	if ids[0] != b.F(4)-1 {
		t.Fatalf("max adversarial id = %d, want f(n)-1 = %d", ids[0], b.F(4)-1)
	}
}

func TestValidRejects(t *testing.T) {
	if err := Valid([]int{0, 1, 1}, nil); err == nil {
		t.Error("duplicate accepted")
	}
	if err := Valid([]int{-1, 0}, nil); err == nil {
		t.Error("negative accepted")
	}
	if err := Valid([]int{0, 5}, Linear(1)); err == nil {
		t.Error("bound violation accepted: id 5 with f(2)=2")
	}
	if err := Valid([]int{0, 1}, Linear(1)); err != nil {
		t.Errorf("legal assignment rejected: %v", err)
	}
}

func TestTabulatedOracle(t *testing.T) {
	o := &TabulatedOracle{
		Table:   map[int]int{1: 10, 2: 100},
		Default: func(n int) int { return n * 1000 },
		Label:   "test",
	}
	if o.Query(1) != 10 || o.Query(2) != 100 {
		t.Error("table lookup failed")
	}
	if o.Query(3) != 3000 {
		t.Error("default fallback failed")
	}
	if o.Name() != "test" {
		t.Error("name wrong")
	}
	nodefault := &TabulatedOracle{Table: map[int]int{}}
	if nodefault.Query(7) != 0 {
		t.Error("missing default should yield 0")
	}
	b := OracleBound(o)
	if b.F(2) != 100 {
		t.Error("OracleBound should delegate to Query")
	}
	if b.Name() != "oracle:test" {
		t.Errorf("OracleBound name = %q", b.Name())
	}
}

func TestRenumberings(t *testing.T) {
	rs := Renumberings(5, 4, Linear(3), 7)
	if len(rs) != 4 {
		t.Fatalf("got %d renumberings, want 4", len(rs))
	}
	seen := make(map[string]struct{})
	for _, ids := range rs {
		if err := Valid(ids, Linear(3)); err != nil {
			t.Fatal(err)
		}
		key := ""
		for _, id := range ids {
			key += string(rune('A' + id))
		}
		if _, dup := seen[key]; dup {
			t.Fatal("duplicate renumbering")
		}
		seen[key] = struct{}{}
	}
	unbounded := Renumberings(5, 3, nil, 7)
	if len(unbounded) != 3 {
		t.Fatalf("unbounded renumberings = %d", len(unbounded))
	}
	for _, ids := range unbounded {
		if err := Valid(ids, nil); err != nil {
			t.Fatal(err)
		}
	}
}

func TestBoundPanics(t *testing.T) {
	t.Run("linear c<1", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		Linear(0)
	})
	t.Run("exponential overflow", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		Exponential().F(70)
	})
	t.Run("adversarial under-capacity", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		Adversarial(3, FuncBound{Fn: func(n int) int { return 1 }, Label: "bad"})
	})
}
