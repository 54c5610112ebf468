// Package fault is the deterministic fault-injection layer of the
// reproduction: every fault the robustness suite can inject — corrupted
// labels, lossy or delayed messages, crashing workers, healing rounds — is
// drawn from a splitmix64 stream derived from one seed and the fault's site
// coordinates. Replaying a seed replays the exact fault trace, independent
// of scheduling, worker count, or wall-clock timing; the determinism mirrors
// the engine's per-(trial, node) coin streams, so fault experiments compose
// with the Monte Carlo subsystem without correlation.
package fault

// Site identifies one class of injection site. Distinct sites index disjoint
// splitmix64 streams, so e.g. the message-fault draws at (round 3, edge u→w)
// can never correlate with the crash draws at (node 3, attempt 0).
type Site uint64

// The injection sites of the fault layer.
const (
	// SiteLabel draws label-corruption victims and replacement labels.
	SiteLabel Site = iota + 1
	// SiteEdge is reserved for structural edge tampering, which nothing
	// injects; it keeps the later sites' streams, and so every replayed
	// fault trace, unchanged.
	SiteEdge
	// SiteMessage draws per-(round, edge) message fates.
	SiteMessage
	// SiteCrash draws per-(node, attempt) worker-crash decisions.
	SiteCrash
	// SiteHeal draws per-victim heal rounds in self-stabilization episodes.
	SiteHeal
)

// golden64 is the splitmix64 increment (the 64-bit golden ratio), matching
// the engine's coin-stream derivation.
const golden64 = 0x9e3779b97f4a7c15

// mix64 is the splitmix64 finalizer: a bijective avalanche of all 64 bits.
func mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Stream is a tiny deterministic random stream (splitmix64). Reseeding is a
// single store, so a fresh stream per injection site costs nothing — which is
// what makes the injector a pure function of its site coordinates.
type Stream struct{ state uint64 }

// Uint64 returns the stream's next 64-bit draw.
func (s *Stream) Uint64() uint64 {
	s.state += golden64
	return mix64(s.state)
}

// Float64 returns the stream's next draw in [0, 1).
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns the stream's next draw in [0, n); n must be positive.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("fault: Intn on non-positive bound")
	}
	return int(s.Uint64() % uint64(n))
}

// streamFor derives the stream of one injection site: the seed stepped
// through the site class and up to three site coordinates, each step a full
// splitmix64 finalization. Calling it twice with the same arguments yields
// identical streams — the purity the engine's injector contract demands.
func streamFor(seed int64, site Site, a, b, c int) Stream {
	x := mix64(uint64(seed) + golden64*uint64(site))
	x = mix64(x + golden64*uint64(a+1))
	x = mix64(x + golden64*uint64(b+1))
	x = mix64(x + golden64*uint64(c+1))
	return Stream{state: x}
}
