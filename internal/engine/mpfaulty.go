package engine

import (
	"sync"
	"time"

	"repro/internal/graph"
)

// This file is the hardened MessagePassing runtime, engaged when an
// evaluation carries an Injector or a RoundTimeout. It runs the same
// synchronous flooding protocol as the lossless backend, but every directed
// message passes through the injector — drop after a bounded retransmit
// budget, duplicate, delay by d rounds — and every round barrier carries an
// optional wall-clock timeout.
//
// The degradation ladder keeps verdicts correct under every fault mix:
//
//  1. A node whose radius-t dependency cone saw no drop, no delay and no
//     timeout has gathered exactly its induced ball, and decides from the
//     assembled view — identical to the lossless backend.
//  2. Any other node declares its view incomplete and falls back to
//     extractor-based evaluation (the functional definition of the same
//     view), so message faults degrade cost, never verdicts.
//
// Cone cleanliness is precomputed from the injector before the protocol
// starts (the injector is a pure function, so sender and receiver agree on
// every fate by construction), and cross-checked at runtime by counting
// on-time arrivals per round — which also catches desynchronisation caused
// by barrier timeouts.

// maxMessageDuplicates clamps an injector's per-message duplicate count so
// per-edge channel capacity stays bounded.
const maxMessageDuplicates = 3

// mpMsg is one (possibly duplicated, possibly delayed) protocol message.
type mpMsg struct {
	sendRound    int
	deliverRound int
	know         *knowledge
}

// mpFatePlan is the precomputed fate table of one faulty run: per-round
// expected on-time in-message counts, the transitive per-node cleanliness
// after t rounds, and the deterministic fault tally.
type mpFatePlan struct {
	clean    []bool  // clean[v]: v's whole dependency cone was on time
	expected [][]int // expected[r][v]: on-time arrivals v must see in round r

	dropped, duplicated, delayed, retransmits int
}

// messageFate resolves one directed message's fate, normalised: no injector
// means delivered-on-time, and duplicate counts arrive pre-clamped.
func (j *job) messageFate(round, from, to int) MessageFate {
	if j.faults == nil {
		return MessageFate{Delivered: true, Attempts: 1}
	}
	fate := j.faults.MessageFate(round, from, to)
	if fate.Duplicates > maxMessageDuplicates {
		fate.Duplicates = maxMessageDuplicates
	}
	if fate.Duplicates < 0 {
		fate.Duplicates = 0
	}
	if fate.Delay < 0 {
		fate.Delay = 0
	}
	return fate
}

// planFates walks every (round, directed edge) site once, before the
// protocol starts: it accumulates the deterministic fault tally and computes
// the transitive cleanliness recursion
//
//	clean_0(v) = true
//	clean_{r+1}(v) = clean_r(v) ∧ ∀(u,v)∈E: onTime_r(u→v) ∧ clean_r(u)
//
// — exactly "v's radius-(r+1) gather is the true ball". The injector being a
// pure function, the goroutines re-consulting the same sites later see the
// same fates.
func (j *job) planFates(t int) *mpFatePlan {
	n := j.n
	p := &mpFatePlan{clean: make([]bool, n)}
	for v := range p.clean {
		p.clean[v] = true
	}
	if j.faults == nil {
		return p
	}
	p.expected = make([][]int, t)
	for r := 0; r < t; r++ {
		p.expected[r] = make([]int, n)
		next := make([]bool, n)
		copy(next, p.clean)
		for u := 0; u < n; u++ {
			for _, w := range j.l.G.Neighbors(u) {
				fate := j.messageFate(r, u, int(w))
				if fate.Attempts > 1 {
					p.retransmits += fate.Attempts - 1
				}
				onTime := fate.Delivered && fate.Delay == 0
				if onTime {
					p.expected[r][int(w)]++
				} else if !fate.Delivered {
					p.dropped++
				} else {
					p.delayed++
				}
				p.duplicated += fate.Duplicates
				if !onTime || !p.clean[u] {
					next[int(w)] = false
				}
			}
		}
		p.clean = next
	}
	return p
}

// expectedOnTime is the on-time in-message count node v must observe in
// round r for its gather to stay synchronised (full in-degree when no
// injector is present).
func (p *mpFatePlan) expectedOnTime(j *job, r, v int) int {
	if p.expected == nil {
		return len(j.l.G.Neighbors(v))
	}
	return p.expected[r][v]
}

// roundBarrier is a reusable synchronisation barrier with per-wait timeout
// and permanent departure: a timed-out node leaves and never blocks the
// survivors again.
type roundBarrier struct {
	mu      sync.Mutex
	n       int // remaining participants
	arrived int
	gen     int
	release chan struct{}
}

func newRoundBarrier(n int) *roundBarrier {
	return &roundBarrier{n: n, release: make(chan struct{})}
}

// advance releases the current generation. Callers hold b.mu.
func (b *roundBarrier) advance() {
	b.arrived = 0
	b.gen++
	close(b.release)
	b.release = make(chan struct{})
}

// wait blocks until all remaining participants arrive, or until timeout
// (0 = wait forever). It returns false on timeout, in which case the caller
// has been removed from the barrier and must not wait again.
func (b *roundBarrier) wait(timeout time.Duration) bool {
	b.mu.Lock()
	gen := b.gen
	b.arrived++
	if b.arrived >= b.n {
		b.advance()
		b.mu.Unlock()
		return true
	}
	ch := b.release
	b.mu.Unlock()
	if timeout <= 0 {
		<-ch
		return true
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-ch:
		return true
	case <-timer.C:
	}
	// Timed out: leave the barrier. If the generation advanced while the
	// timer raced the release, our arrival was already consumed; otherwise
	// withdraw it so the survivors' count stays exact.
	b.mu.Lock()
	if b.gen == gen {
		b.arrived--
	}
	b.n--
	if b.n > 0 && b.arrived >= b.n {
		b.advance()
	}
	b.mu.Unlock()
	return false
}

// runMPFaulty is the hardened message-passing run; see the file comment for
// the protocol and the degradation ladder.
func runMPFaulty(j *job) {
	n := j.n
	t := j.dec.Horizon

	plan := j.planFates(t)
	j.stats.Dropped = plan.dropped
	j.stats.Duplicated = plan.duplicated
	j.stats.Delayed = plan.delayed
	j.stats.Retransmits = plan.retransmits

	// Per-directed-edge channels sized for every message the edge can ever
	// carry (t rounds × one original + clamped duplicates), so sends never
	// block — a receiver that timed out and stopped draining cannot wedge
	// its neighbours.
	type edgeKey struct{ from, to int }
	capacity := t*(1+maxMessageDuplicates) + 1
	chans := make(map[edgeKey]chan mpMsg, 2*j.l.G.M())
	for u := 0; u < n; u++ {
		for _, v := range j.l.G.Neighbors(u) {
			chans[edgeKey{from: u, to: int(v)}] = make(chan mpMsg, capacity)
		}
	}

	barrier := newRoundBarrier(n)
	var (
		wg       sync.WaitGroup
		fallback fallbackExtractor
	)
	wg.Add(n)
	for v := 0; v < n; v++ {
		go func(v int) {
			defer wg.Done()
			var c counters
			buf := newNodeKnowledge(j, v, j.hiddenID(v))
			var pending []mpMsg
			incomplete := !plan.clean[v]
			left := false
			for round := 0; round < t; round++ {
				snapshot := buf.snapshot()
				for _, u := range j.l.G.Neighbors(v) {
					fate := j.messageFate(round, v, int(u))
					if !fate.Delivered {
						continue
					}
					m := mpMsg{sendRound: round, deliverRound: round + fate.Delay, know: snapshot}
					for d := 0; d <= fate.Duplicates; d++ {
						chans[edgeKey{from: v, to: int(u)}] <- m
						c.messages++
						c.units += snapshot.size()
					}
				}
				if !left && !barrier.wait(j.opts.RoundTimeout) {
					c.timedOut++
					incomplete = true
					left = true
				}
				// Drain everything currently buffered on the in-edges;
				// messages due this round merge now, future deliveries wait
				// in the pending list.
				onTime := 0
				for _, u := range j.l.G.Neighbors(v) {
					ch := chans[edgeKey{from: int(u), to: v}]
					for drained := false; !drained; {
						select {
						case m := <-ch:
							if m.deliverRound <= round {
								buf.absorb(m.know)
								if m.sendRound == round && m.deliverRound == round {
									onTime++
								}
							} else {
								pending = append(pending, m)
							}
						default:
							drained = true
						}
					}
				}
				kept := pending[:0]
				for _, m := range pending {
					if m.deliverRound <= round {
						buf.absorb(m.know)
						// A round-r message drained ahead of the receiver's
						// round r (the sender ran ahead after the barrier) is
						// still an on-time arrival of the synchronous
						// protocol — it parked in pending only because the
						// receiver's drain saw it early.
						if m.sendRound == round && m.deliverRound == round {
							onTime++
						}
					} else {
						kept = append(kept, m)
					}
				}
				pending = kept
				// Fewer on-time arrivals than the fate plan demands means a
				// sender ran ahead or behind (barrier timeout somewhere):
				// the gather can no longer be trusted.
				if onTime < plan.expectedOnTime(j, round, v) {
					incomplete = true
				}
			}

			if incomplete {
				c.incomplete++
				j.decideFlooded(&c, v, func(v int) Verdict { return fallback.decide(j, v) })
			} else {
				j.decideFlooded(&c, v, func(v int) Verdict { return j.decideGathered(buf.cur, v) })
			}
			j.merge(&c)
		}(v)
	}
	wg.Wait()
}

// fallbackExtractor is the shared, lazily-built extractor serving incomplete
// nodes: one per faulty run, mutex-guarded because extractor views are
// scratch-backed and the decide must finish before the next extraction.
type fallbackExtractor struct {
	mu sync.Mutex
	x  *graph.ViewExtractor
}

// decide extracts node v's true functional view and decides it, serialised
// on the extractor's lock. The extracted view is exactly the functional
// definition of the node's radius-t view, so fallback verdicts equal
// lossless verdicts.
func (f *fallbackExtractor) decide(j *job, v int) Verdict {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.x == nil {
		f.x = j.extractor()
	}
	view := f.x.At(v, j.dec.Horizon)
	return j.decideView(view, v)
}
