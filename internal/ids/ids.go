// Package ids models identifier assignments Id: V -> N and the paper's two
// regimes for them:
//
//   - (B):  bounded identifiers, Id(v) < f(n) for a fixed function f of the
//     number of nodes n of the (connected) input graph;
//   - (¬B): unbounded identifiers.
//
// It also provides the Oracle wrapper used to model assumption (¬C): a node
// may consult an arbitrary tabulated function as a black box, standing in for
// the paper's "possibly uncomputable" local computation. The substitution is
// documented in DESIGN.md: the separations only use that f is monotone and
// that nodes can evaluate (or query) f and its inverse, which a tabulated
// oracle reproduces exactly on the finite instances we run.
package ids

import (
	"fmt"
	"math/rand"
)

// Bound is the function f in assumption (B): identifiers in an n-node graph
// are required to satisfy Id(v) < f(n).
type Bound interface {
	// F returns f(n). f must be monotone non-decreasing with f(n) >= n (there
	// must be room for n distinct identifiers).
	F(n int) int
	// Name identifies the bound in reports.
	Name() string
}

// FuncBound adapts a plain function to a Bound.
type FuncBound struct {
	Fn    func(n int) int
	Label string
}

// F implements Bound.
func (b FuncBound) F(n int) int { return b.Fn(n) }

// Name implements Bound.
func (b FuncBound) Name() string { return b.Label }

// Linear returns f(n) = c*n.
func Linear(c int) Bound {
	if c < 1 {
		panic("ids: linear bound needs c >= 1")
	}
	return FuncBound{Fn: func(n int) int { return c * n }, Label: fmt.Sprintf("%d*n", c)}
}

// Quadratic returns f(n) = n^2 + n (the +n keeps f(n) >= n for n <= 1).
func Quadratic() Bound {
	return FuncBound{Fn: func(n int) int { return n*n + n }, Label: "n^2+n"}
}

// Exponential returns f(n) = 2^n (capped to avoid overflow; instances in this
// repository stay far below the cap).
func Exponential() Bound {
	return FuncBound{
		Fn: func(n int) int {
			if n >= 62 {
				panic(fmt.Sprintf("ids: exponential bound overflow at n=%d", n))
			}
			return 1 << uint(n)
		},
		Label: "2^n",
	}
}

// InverseF returns the smallest j such that f(j) >= i, written f^-1(i) in the
// paper: the information an identifier i leaks about the graph size under (B)
// is exactly n >= f^-1(i) whenever i >= f(f^-1(i)-1)... in practice, a node
// holding identifier i knows n > j-1 for the largest j with f(j) <= i.
func InverseF(b Bound, i int) int {
	j := 1
	for b.F(j) < i+1 { // smallest j with f(j) >= i+1, i.e. f(j) > i
		j++
	}
	return j
}

// Oracle is a black-box function from naturals to naturals used to model
// assumption (¬C). It is deliberately an interface so that callers cannot
// inspect it other than by querying; the paper's uncomputable-f scenarios are
// reproduced by tabulated oracles whose table is hidden from the algorithm.
type Oracle interface {
	Query(n int) int
	Name() string
}

// TabulatedOracle is an Oracle backed by an explicit table (with a default
// for out-of-table queries). It stands in for an uncomputable function: the
// algorithm under test receives only the interface and cannot do better than
// query it pointwise.
type TabulatedOracle struct {
	Table   map[int]int
	Default func(n int) int
	Label   string
}

// Query implements Oracle.
func (o *TabulatedOracle) Query(n int) int {
	if v, ok := o.Table[n]; ok {
		return v
	}
	if o.Default != nil {
		return o.Default(n)
	}
	return 0
}

// Name implements Oracle.
func (o *TabulatedOracle) Name() string { return o.Label }

// OracleBound turns an Oracle into a Bound, modelling the (B, ¬C) corner:
// the identifier bound f exists but the algorithm can only query it.
func OracleBound(o Oracle) Bound {
	return FuncBound{Fn: o.Query, Label: "oracle:" + o.Name()}
}

// Assignment generators -------------------------------------------------------

// Sequential returns the identifier assignment 0, 1, ..., n-1.
func Sequential(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// SequentialFrom returns start, start+1, ..., start+n-1.
func SequentialFrom(n, start int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = start + i
	}
	return ids
}

// RandomBounded returns a uniformly random one-to-one assignment of n
// identifiers drawn from {0, ..., f(n)-1}, deterministic given the seed.
func RandomBounded(n int, b Bound, seed int64) []int {
	limit := b.F(n)
	if limit < n {
		panic(fmt.Sprintf("ids: bound %s gives f(%d)=%d < n", b.Name(), n, limit))
	}
	rng := rand.New(rand.NewSource(seed))
	if limit <= 4*n {
		// Small range: permute the whole range and take a prefix.
		perm := rng.Perm(limit)
		return perm[:n]
	}
	// Sparse range: rejection-sample distinct values.
	seen := make(map[int]struct{}, n)
	ids := make([]int, 0, n)
	for len(ids) < n {
		v := rng.Intn(limit)
		if _, dup := seen[v]; dup {
			continue
		}
		seen[v] = struct{}{}
		ids = append(ids, v)
	}
	return ids
}

// RandomUnbounded returns n distinct identifiers with no a-priori bound: it
// samples from a range that grows with both n and an adversarial "scale"
// parameter, modelling (¬B) where identifier magnitude is unrelated to n.
func RandomUnbounded(n int, scale int, seed int64) []int {
	if scale < 1 {
		scale = 1
	}
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[int]struct{}, n)
	ids := make([]int, 0, n)
	for len(ids) < n {
		v := rng.Intn(scale * (n + 1))
		if _, dup := seen[v]; dup {
			continue
		}
		seen[v] = struct{}{}
		ids = append(ids, v)
	}
	return ids
}

// Adversarial returns the assignment that places the largest admissible
// identifiers under bound b: f(n)-1, f(n)-2, ..., f(n)-n. Lower bounds in the
// paper hinge on such assignments existing (some node must carry an
// identifier >= f(n)-n >= ... on large instances).
func Adversarial(n int, b Bound) []int {
	limit := b.F(n)
	if limit < n {
		panic(fmt.Sprintf("ids: bound %s gives f(%d)=%d < n", b.Name(), n, limit))
	}
	ids := make([]int, n)
	for i := range ids {
		ids[i] = limit - 1 - i
	}
	return ids
}

// Valid reports whether ids is a legal assignment for an n-node graph under
// bound b (nil b means unbounded): non-negative, pairwise distinct, below
// f(n) when bounded.
func Valid(ids []int, b Bound) error {
	n := len(ids)
	seen := make(map[int]struct{}, n)
	for v, id := range ids {
		if id < 0 {
			return fmt.Errorf("ids: negative identifier %d at node %d", id, v)
		}
		if _, dup := seen[id]; dup {
			return fmt.Errorf("ids: duplicate identifier %d", id)
		}
		seen[id] = struct{}{}
		if b != nil && id >= b.F(n) {
			return fmt.Errorf("ids: identifier %d violates bound %s: f(%d)=%d", id, b.Name(), n, b.F(n))
		}
	}
	return nil
}

// Renumberings returns k distinct pseudo-random renumberings of an n-node
// instance under bound b (unbounded if b is nil), for testing that a decider
// really is Id-oblivious. Deterministic given the seed.
func Renumberings(n, k int, b Bound, seed int64) [][]int {
	out := make([][]int, 0, k)
	keys := make(map[string]struct{}, k)
	for i := 0; len(out) < k && i < 100*k+100; i++ {
		var ids []int
		if b != nil {
			ids = RandomBounded(n, b, seed+int64(i))
		} else {
			ids = RandomUnbounded(n, i+1, seed+int64(i))
		}
		key := fmt.Sprint(ids)
		if _, dup := keys[key]; dup {
			continue
		}
		keys[key] = struct{}{}
		out = append(out, ids)
	}
	return out
}
