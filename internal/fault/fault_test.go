package fault

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/graph"
)

// Streams must be pure functions of (seed, site, coordinates): the engine
// consults the same site repeatedly and replays whole runs from one seed.
func TestStreamDeterminism(t *testing.T) {
	a := streamFor(7, SiteMessage, 1, 2, 3)
	b := streamFor(7, SiteMessage, 1, 2, 3)
	for i := 0; i < 32; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("draw %d diverged for identical stream coordinates", i)
		}
	}
}

func TestStreamSiteSeparation(t *testing.T) {
	// Different sites or coordinates must give (practically) independent
	// streams: identical first draws would mean the mixing is broken.
	seen := make(map[uint64][]string)
	for _, site := range []Site{SiteLabel, SiteEdge, SiteMessage, SiteCrash, SiteHeal} {
		for c := 0; c < 8; c++ {
			s := streamFor(1, site, c, 0, 0)
			v := s.Uint64()
			seen[v] = append(seen[v], fmt.Sprintf("site%d/%d", site, c))
		}
	}
	for v, ids := range seen {
		if len(ids) > 1 {
			t.Errorf("streams %v share first draw %#x", ids, v)
		}
	}
}

func TestStreamFloat64Range(t *testing.T) {
	s := streamFor(3, SiteCrash, 0, 0, 0)
	for i := 0; i < 1000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0, 1)", f)
		}
	}
}

func TestPlanCrashDecide(t *testing.T) {
	never := &Plan{Seed: 1, Crash: &CrashModel{Rate: 0}}
	always := &Plan{Seed: 1, Crash: &CrashModel{Rate: 1}}
	some := &Plan{Seed: 1, Crash: &CrashModel{Rate: 0.5}}
	crashes := 0
	for node := 0; node < 50; node++ {
		for attempt := 0; attempt < 3; attempt++ {
			if never.CrashDecide(node, attempt) {
				t.Fatal("rate 0 must never crash")
			}
			if !always.CrashDecide(node, attempt) {
				t.Fatal("rate 1 must always crash")
			}
			got := some.CrashDecide(node, attempt)
			if got != some.CrashDecide(node, attempt) {
				t.Fatalf("CrashDecide(%d, %d) is not pure", node, attempt)
			}
			if got {
				crashes++
			}
		}
	}
	if crashes == 0 || crashes == 150 {
		t.Errorf("rate 0.5 produced %d/150 crashes; the stream looks degenerate", crashes)
	}
	var nilPlan *Plan
	if nilPlan.CrashDecide(0, 0) {
		t.Error("nil plan must be fault-free")
	}
}

func TestPlanMessageFate(t *testing.T) {
	clean := &Plan{Seed: 1}
	f := clean.MessageFate(0, 1, 2)
	if !f.Delivered || f.Attempts != 1 || f.Duplicates != 0 || f.Delay != 0 {
		t.Fatalf("plan without a message model must deliver cleanly, got %+v", f)
	}

	// Certain drop with a retransmit budget: all 1+b transmissions consumed,
	// nothing delivered.
	drop := &Plan{Seed: 1, Message: &MessageModel{DropRate: 1, RetransmitBudget: 3}}
	f = drop.MessageFate(2, 0, 1)
	if f.Delivered || f.Attempts != 4 {
		t.Fatalf("dropRate 1, budget 3: want lost after 4 attempts, got %+v", f)
	}

	// Purity: the engine consults the same fate in its plan pass and at the
	// send site; both must agree.
	p := &Plan{Seed: 9, Message: &MessageModel{DropRate: 0.3, DuplicateRate: 0.3, DelayRate: 0.3, RetransmitBudget: 2}}
	for round := 0; round < 4; round++ {
		for from := 0; from < 6; from++ {
			for to := 0; to < 6; to++ {
				if p.MessageFate(round, from, to) != p.MessageFate(round, from, to) {
					t.Fatalf("MessageFate(%d, %d, %d) is not pure", round, from, to)
				}
			}
		}
	}

	// Delay bounds: 1..MaxDelay when drawn.
	d := &Plan{Seed: 4, Message: &MessageModel{DelayRate: 1, MaxDelay: 3}}
	sawDelay := false
	for i := 0; i < 64; i++ {
		f := d.MessageFate(i, 0, 1)
		if f.Delay < 1 || f.Delay > 3 {
			t.Fatalf("delay %d out of [1, 3]", f.Delay)
		}
		if f.Delay > 1 {
			sawDelay = true
		}
	}
	if !sawDelay {
		t.Error("delayRate 1 never drew a delay above 1; the stream looks degenerate")
	}
}

func pyramidLikeInstance() *graph.Labeled {
	l := graph.RandomLabels(graph.Cycle(40), []graph.Label{"a", "b", "c"}, 5)
	return l
}

func TestCorruptLabelsDeterminismAndModels(t *testing.T) {
	l := pyramidLikeInstance()
	orig := append([]graph.Label(nil), l.Labels...)

	for _, model := range []LabelModel{Flip, Swap, Randomize} {
		c1, v1 := CorruptLabels(l, model, 8, 11)
		c2, v2 := CorruptLabels(l, model, 8, 11)
		if !reflect.DeepEqual(v1, v2) || !reflect.DeepEqual(c1.Labels, c2.Labels) {
			t.Fatalf("%s: same seed corrupted differently", model)
		}
		if !reflect.DeepEqual(l.Labels, orig) {
			t.Fatalf("%s: CorruptLabels mutated its input", model)
		}
		seen := make(map[int]bool)
		for _, v := range v1 {
			if seen[v] {
				t.Fatalf("%s: victim %d selected twice", model, v)
			}
			seen[v] = true
		}
		_, v3 := CorruptLabels(l, model, 8, 12)
		if reflect.DeepEqual(v1, v3) {
			t.Errorf("%s: different seeds picked identical victims", model)
		}
	}

	// Flip: every victim's label changes (the alphabet has 3 labels).
	flipped, victims := CorruptLabels(l, Flip, 8, 11)
	if len(victims) != 8 {
		t.Fatalf("flip victims = %d, want 8", len(victims))
	}
	for _, v := range victims {
		if flipped.Labels[v] == l.Labels[v] {
			t.Errorf("flip left node %d's label unchanged", v)
		}
	}

	// Swap: an odd k rounds down; the label multiset is preserved.
	swapped, victims := CorruptLabels(l, Swap, 7, 11)
	if len(victims) != 6 {
		t.Fatalf("swap victims = %d, want 6 (odd k rounds down)", len(victims))
	}
	count := func(labels []graph.Label) map[graph.Label]int {
		m := make(map[graph.Label]int)
		for _, lab := range labels {
			m[lab]++
		}
		return m
	}
	if !reflect.DeepEqual(count(swapped.Labels), count(l.Labels)) {
		t.Error("swap changed the label multiset")
	}

	// Randomize: garbage labels that no grammar parses.
	randomized, victims := CorruptLabels(l, Randomize, 4, 11)
	for _, v := range victims {
		if !strings.HasPrefix(string(randomized.Labels[v]), "\x00corrupt-") {
			t.Errorf("randomize gave node %d a non-garbage label %q", v, randomized.Labels[v])
		}
	}

	// k past n clamps; non-positive k is a no-op copy.
	_, victims = CorruptLabels(l, Flip, 1000, 11)
	if len(victims) != l.N() {
		t.Errorf("k>n victims = %d, want n=%d", len(victims), l.N())
	}
	same, victims := CorruptLabels(l, Flip, 0, 11)
	if len(victims) != 0 || !reflect.DeepEqual(same.Labels, l.Labels) {
		t.Error("k=0 must return an untouched copy")
	}
}

func TestParseLabelModelRoundTrip(t *testing.T) {
	for _, m := range []LabelModel{Flip, Swap, Randomize} {
		got, err := ParseLabelModel(m.String())
		if err != nil || got != m {
			t.Errorf("round trip of %s failed: %v, %v", m, got, err)
		}
	}
	if _, err := ParseLabelModel("meteor"); err == nil {
		t.Error("unknown model must be an error")
	}
}

// okDecider accepts iff every label in the view equals "ok": the simplest
// label-grammar verifier, blind to equal-label swaps by construction.
func okDecider() engine.Decider {
	return engine.Decider{
		Name:    "all-ok",
		Horizon: 1,
		Decide: func(view *graph.View) engine.Verdict {
			for _, lab := range view.Labels {
				if lab != "ok" {
					return engine.No
				}
			}
			return engine.Yes
		},
	}
}

func TestRunEpisodeDeterminismAndRecovery(t *testing.T) {
	l := graph.UniformlyLabeled(graph.Cycle(24), "ok")
	cfg := SelfStabConfig{Model: Flip, Rate: 0.2, Decider: okDecider()}

	ep1, err := RunEpisode(l, cfg, 33)
	if err != nil {
		t.Fatal(err)
	}
	ep2, err := RunEpisode(l, cfg, 33)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ep1, ep2) {
		t.Fatalf("same seed, different episodes:\n%+v\n%+v", ep1, ep2)
	}
	// Flip on a uniform alphabet mints a marked label the grammar rejects:
	// zero exposure, and healing is capped so recovery is certain.
	if !ep1.Recovered {
		t.Error("episode must recover within the heal budget")
	}
	if ep1.ExposedRounds != 0 {
		t.Errorf("flip on uniform labels exposed %d rounds, want 0", ep1.ExposedRounds)
	}
	if ep1.RecoveryRound < 1 || ep1.RecoveryRound > 16 {
		t.Errorf("recovery round %d out of the heal budget", ep1.RecoveryRound)
	}
	if len(ep1.Victims) != 5 {
		t.Errorf("rate 0.2 on n=24 corrupted %d nodes, want 5", len(ep1.Victims))
	}

	// Swap on uniform labels is invisible: the verifier accepts every round,
	// so every corrupted round is exposure and recovery lands at the first
	// fully-healed round.
	swapEp, err := RunEpisode(l, SelfStabConfig{Model: Swap, Rate: 0.2, Decider: okDecider()}, 33)
	if err != nil {
		t.Fatal(err)
	}
	if !swapEp.Recovered {
		t.Error("swap episode must recover")
	}
	if swapEp.ExposedRounds == 0 {
		t.Error("uniform-label swaps are invisible: exposure must be positive")
	}

	if _, err := RunEpisode(graph.UniformlyLabeled(graph.New(0), ""), cfg, 1); err == nil {
		t.Error("empty instance must be an error")
	}
}

// The incremental episode path must reproduce the from-scratch episodes
// exactly: heal times derive from the seed's SiteHeal streams independently
// of evaluation, and the resident session's verdicts are parity-locked to
// EvalOblivious, so every field except the repair tally coincides.
func TestRunEpisodeIncrementalParity(t *testing.T) {
	l := graph.UniformlyLabeled(graph.Cycle(48), "ok")
	for _, model := range []LabelModel{Flip, Swap, Randomize} {
		for seed := int64(1); seed <= 8; seed++ {
			full, err := RunEpisode(l, SelfStabConfig{Model: model, Rate: 0.15, Decider: okDecider()}, seed)
			if err != nil {
				t.Fatal(err)
			}
			inc, err := RunEpisode(l, SelfStabConfig{Model: model, Rate: 0.15, Decider: okDecider(), Incremental: true}, seed)
			if err != nil {
				t.Fatal(err)
			}
			if full.DirtyNodes != 0 {
				t.Fatalf("%v seed %d: from-scratch episode reported dirty nodes: %d", model, seed, full.DirtyNodes)
			}
			if inc.DirtyNodes == 0 {
				t.Fatalf("%v seed %d: incremental episode repaired nothing", model, seed)
			}
			// Heal-round repairs stay ball-sized: strictly less work than
			// re-deciding all n nodes every one of the budgeted rounds.
			if inc.DirtyNodes >= l.N()*(inc.Evaluations-1) {
				t.Fatalf("%v seed %d: repairs (%d nodes over %d rounds) not sublinear",
					model, seed, inc.DirtyNodes, inc.Evaluations-1)
			}
			inc.DirtyNodes = 0
			if !reflect.DeepEqual(full, inc) {
				t.Fatalf("%v seed %d: incremental episode diverged:\nfull: %+v\ninc:  %+v", model, seed, full, inc)
			}
		}
	}
}

// The sweep aggregates must also coincide: E16's rounds-to-recovery table is
// identical whichever engine path computed it.
func TestRecoverySweepIncrementalParity(t *testing.T) {
	l := graph.UniformlyLabeled(graph.Cycle(32), "ok")
	opts := engine.TrialOptions{Trials: 10, Seed: 7, Workers: 1}
	full, err := RecoverySweep(l, SelfStabConfig{Model: Flip, Rate: 0.2, Decider: okDecider()}, opts)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := RecoverySweep(l, SelfStabConfig{Model: Flip, Rate: 0.2, Decider: okDecider(), Incremental: true}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if inc.Episodes != full.Episodes ||
		inc.ExposedRounds != full.ExposedRounds ||
		inc.ExposedEpisodes != full.ExposedEpisodes ||
		inc.MeanRecoveryRounds != full.MeanRecoveryRounds ||
		inc.Trials.Accepted != full.Trials.Accepted {
		t.Fatalf("incremental sweep diverged:\nfull: %+v\ninc:  %+v", full, inc)
	}
}

// The sweep's aggregates must not depend on the worker count: trials commit
// in order and tallies are commutative sums, so any pool size reports the
// same table — the acceptance criterion behind the E16 replay guarantee.
func TestRecoverySweepWorkerInvariance(t *testing.T) {
	l := graph.UniformlyLabeled(graph.Cycle(24), "ok")
	cfg := SelfStabConfig{Model: Swap, Rate: 0.2, Decider: okDecider()}
	base, err := RecoverySweep(l, cfg, engine.TrialOptions{Trials: 12, Seed: 5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if base.Episodes != 12 {
		t.Fatalf("episodes = %d, want 12", base.Episodes)
	}
	for _, workers := range []int{2, 4} {
		sw, err := RecoverySweep(l, cfg, engine.TrialOptions{Trials: 12, Seed: 5, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if sw.Episodes != base.Episodes ||
			sw.ExposedRounds != base.ExposedRounds ||
			sw.ExposedEpisodes != base.ExposedEpisodes ||
			sw.MeanRecoveryRounds != base.MeanRecoveryRounds ||
			sw.Trials.Accepted != base.Trials.Accepted ||
			sw.Trials.Estimate != base.Trials.Estimate {
			t.Errorf("workers=%d diverged from workers=1:\n%+v\n%+v", workers, sw, base)
		}
	}
}

func TestRecoverySweepRejectsAdaptiveStop(t *testing.T) {
	l := graph.UniformlyLabeled(graph.Cycle(8), "ok")
	cfg := SelfStabConfig{Model: Flip, Rate: 0.2, Decider: okDecider()}
	_, err := RecoverySweep(l, cfg, engine.TrialOptions{Trials: 4, Seed: 1, AdaptiveStop: true, Threshold: 0.5})
	if err == nil {
		t.Fatal("adaptive stopping must be rejected: tallies need every trial to run")
	}
}
