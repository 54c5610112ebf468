package fault

import (
	"repro/internal/engine"
)

// CrashModel injects worker crashes: each (node, attempt) decide call panics
// independently with probability Rate. The engine's retry loop respawns the
// work up to Options.MaxAttempts times, so a crashed node is re-decided on a
// fresh attempt stream — persistent bad luck (all attempts crash) surfaces as
// a per-node VerdictError, never a dead process.
type CrashModel struct {
	// Rate is the per-attempt crash probability in [0, 1].
	Rate float64
}

// MessageModel injects message faults into the message-passing backend.
// Every directed (round, edge) message draws its fate independently.
type MessageModel struct {
	// DropRate is the per-transmission loss probability in [0, 1]. With a
	// RetransmitBudget of b, a message is lost for good only when all 1+b
	// transmissions drop.
	DropRate float64
	// DuplicateRate is the probability a delivered message is duplicated
	// (1–2 extra copies; the engine clamps the total).
	DuplicateRate float64
	// DelayRate is the probability a delivered message arrives late, by
	// 1..MaxDelay rounds.
	DelayRate float64
	// MaxDelay bounds the delay in rounds (0 means 2).
	MaxDelay int
	// RetransmitBudget is the number of retransmissions after a dropped
	// transmission before the message is abandoned.
	RetransmitBudget int
}

// Plan is a seed-replayable fault plan: it implements engine.Injector by
// deriving every fate from Seed and the fate's site coordinates, nothing
// else. The same Plan value replays the identical fault trace on every run,
// every scheduler, and every worker count.
type Plan struct {
	// Seed drives every stream of the plan.
	Seed int64
	// Crash, when set, injects worker crashes into decide calls.
	Crash *CrashModel
	// Message, when set, injects message faults into the MP backend.
	Message *MessageModel
}

// CrashDecide reports whether node v's decide attempt should crash — a pure
// function of (seed, node, attempt), per the engine's injector contract.
func (p *Plan) CrashDecide(node, attempt int) bool {
	if p == nil || p.Crash == nil || p.Crash.Rate <= 0 {
		return false
	}
	s := streamFor(p.Seed, SiteCrash, node, attempt, 0)
	return s.Float64() < p.Crash.Rate
}

// MessageFate resolves the fate of round r's message from → to — a pure
// function of (seed, round, from, to), per the engine's injector contract,
// so a replay rules on every message as the first run did.
func (p *Plan) MessageFate(round, from, to int) engine.MessageFate {
	fate := engine.MessageFate{Delivered: true, Attempts: 1}
	if p == nil || p.Message == nil {
		return fate
	}
	m := p.Message
	s := streamFor(p.Seed, SiteMessage, round, from, to)
	if m.DropRate > 0 {
		fate.Delivered = false
		for a := 0; a <= m.RetransmitBudget; a++ {
			fate.Attempts = a + 1
			if s.Float64() >= m.DropRate {
				fate.Delivered = true
				break
			}
		}
		if !fate.Delivered {
			return fate
		}
	}
	if m.DuplicateRate > 0 && s.Float64() < m.DuplicateRate {
		fate.Duplicates = 1 + s.Intn(2)
	}
	if m.DelayRate > 0 && s.Float64() < m.DelayRate {
		maxDelay := m.MaxDelay
		if maxDelay <= 0 {
			maxDelay = 2
		}
		fate.Delay = 1 + s.Intn(maxDelay)
	}
	return fate
}
