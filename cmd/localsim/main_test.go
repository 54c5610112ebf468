package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestLocalsimCombos(t *testing.T) {
	combos := [][]string{
		{"-graph", "cycle", "-n", "6", "-decider", "3col"},
		{"-graph", "path", "-n", "5", "-decider", "mis"},
		{"-graph", "star", "-n", "5", "-decider", "degree2"},
		{"-graph", "grid", "-n", "3", "-decider", "triangle-free"},
		{"-graph", "tree", "-n", "3", "-decider", "degree2"},
		{"-graph", "cycle", "-n", "6", "-decider", "3col", "-backend", "mp"},
		{"-graph", "cycle", "-n", "50", "-decider", "degree2", "-runs", "3", "-cache"},
		{"-graph", "grid", "-n", "8", "-decider", "triangle-free", "-backend", "sharded", "-runs", "2", "-cache"},
		{"-graph", "pyramid", "-n", "2", "-decider", "triangle-free"},
		{"-graph", "pyramid", "-n", "4", "-decider", "degree2", "-backend", "sharded", "-dedup", "-summary"},
		{"-graph", "cycle", "-n", "16", "-decider", "coin", "-summary"},
		{"-graph", "cycle", "-n", "16", "-decider", "coin", "-trials", "80"},
		{"-graph", "cycle", "-n", "16", "-decider", "coin", "-trials", "200", "-confidence", "0.99", "-backend", "sharded"},
		{"-graph", "cycle", "-n", "16", "-decider", "coin", "-trials", "2000", "-threshold", "0.5"},
		{"-graph", "random", "-n", "40", "-decider", "degree2", "-seed", "3"},
		{"-graph", "path", "-n", "20", "-decider", "forest"},
		{"-graph", "cycle", "-n", "200", "-decider", "degree2", "-dynamic", "30", "-incremental", "-summary"},
		{"-graph", "cycle", "-n", "60", "-decider", "degree2", "-dynamic", "10", "-summary"},
		{"-graph", "random", "-n", "60", "-decider", "forest", "-dynamic", "20", "-incremental", "-seed", "5", "-summary"},
		{"-graph", "grid", "-n", "6", "-decider", "3col", "-dynamic", "12", "-incremental", "-backend", "sharded", "-summary"},
		{"-graph", "cycle", "-n", "64", "-decider", "degree2", "-shards", "4", "-summary"},
		{"-graph", "pyramid", "-n", "4", "-decider", "triangle-free", "-shards", "3", "-dedup", "-summary"},
		{"-graph", "tree", "-n", "5", "-decider", "degree2", "-shards", "2", "-summary"},
		{"-graph", "grid", "-n", "8", "-decider", "triangle-free", "-shards", "4", "-faults", "messages", "-fault-rate", "0.4", "-summary"},
		{"-graph", "cycle", "-n", "48", "-decider", "degree2", "-shards", "2", "-faults", "crash", "-fault-rate", "0.3", "-summary"},
		{"-graph", "cycle", "-n", "32", "-decider", "coin", "-shards", "2", "-summary"},
		{"-faults", "flip", "-fault-rate", "0.2", "-trials", "3", "-shards", "4"},
	}
	for _, args := range combos {
		if err := run(args); err != nil {
			t.Errorf("localsim %v: %v", args, err)
		}
	}
}

func TestLocalsimErrors(t *testing.T) {
	if err := run([]string{"-graph", "mystery"}); err == nil {
		t.Error("unknown graph accepted")
	}
	if err := run([]string{"-decider", "mystery"}); err == nil {
		t.Error("unknown decider accepted")
	}
	if err := run([]string{"-runs", "0"}); err == nil {
		t.Error("non-positive -runs accepted")
	}
	if err := run([]string{"-graph", "pyramid", "-n", "13"}); err == nil {
		t.Error("out-of-range pyramid height accepted")
	}
	if err := run([]string{"-decider", "3col", "-trials", "10"}); err == nil {
		t.Error("-trials with a deterministic decider accepted")
	}
	if err := run([]string{"-decider", "coin", "-trials", "10", "-backend", "mp"}); err == nil {
		t.Error("-trials with the message-passing backend accepted")
	}
	if err := run([]string{"-decider", "coin", "-trials", "10", "-threshold", "1.5"}); err == nil {
		t.Error("out-of-range -threshold accepted")
	}
	if err := run([]string{"-decider", "coin", "-trials", "10", "-confidence", "1.5"}); err == nil {
		t.Error("out-of-range -confidence accepted")
	}
}

// TestLocalsimUpFrontValidation pins the front-door flag check: each bad
// invocation fails with a one-line usage error before any instance is built
// or profile file created.
func TestLocalsimUpFrontValidation(t *testing.T) {
	bad := [][]string{
		{"stray-positional"},
		{"-backend", "quantum"},
		{"-n", "-4"},
		{"-runs", "-2"},
		{"-trials", "-5"},
		{"-faults", "mystery"},
		{"-faults", "flip", "-fault-rate", "0"},
		{"-faults", "flip", "-fault-rate", "1.5"},
		{"-faults", "crash", "-fault-rate", "-0.1"},
		{"-graph", "mystery", "-cpuprofile", "/nonexistent-dir/should-not-be-created"},
		{"-dynamic", "-3"},
		{"-dynamic", "5", "-decider", "coin", "-trials", "10"},
		{"-dynamic", "5", "-faults", "crash"},
		{"-dynamic", "5", "-runs", "2"},
		{"-dynamic", "5", "-decider", "coin"},
		{"-shards", "-1"},
		{"-shards", "4", "-backend", "sharded"},
		{"-decider", "coin", "-trials", "10", "-shards", "4"},
		{"-faults", "flip", "-trials", "3", "-shards", "4", "-incremental"},
	}
	for _, args := range bad {
		if err := run(args); err == nil {
			t.Errorf("localsim %v accepted a bad invocation", args)
		}
	}
	// Validation must run before profiling starts: an invalid invocation,
	// an unknown family or a size outside the family's range, must never
	// create the profile file.
	for _, args := range [][]string{{"-graph", "mystery"}, {"-graph", "cycle", "-n", "2"}, {"-decider", "mystery"}} {
		prof := filepath.Join(t.TempDir(), "should-not-exist.prof")
		if err := run(append(args, "-cpuprofile", prof)); err == nil {
			t.Errorf("invalid invocation %v with -cpuprofile accepted", args)
		}
		if _, err := os.Stat(prof); err == nil {
			t.Errorf("invalid invocation %v still created the profile file", args)
		}
	}
}

// TestLocalsimGraphSizeErrors: sizes outside a family's range, or past the
// graph package's size bounds, come back as errors instead of constructor
// panics.
func TestLocalsimGraphSizeErrors(t *testing.T) {
	bad := [][]string{
		{"-graph", "cycle", "-n", "2"},
		{"-graph", "cycle", "-n", "0"},
		{"-graph", "path", "-n", "0"},
		{"-graph", "star", "-n", "0"},
		{"-graph", "grid", "-n", "0"},
		{"-graph", "random", "-n", "0"},
		{"-graph", "tree", "-n", "30"},
		{"-graph", "pyramid", "-n", "13"},
		{"-graph", "grid", "-n", "1000000000"},
		{"-graph", "cycle", "-n", "1000000000000"},
	}
	for _, args := range bad {
		if err := run(args); err == nil {
			t.Errorf("localsim %v accepted an out-of-range size", args)
		}
	}
}

// TestSelfStabShardedReplays runs the sharded E16 sweep of CI's smoke
// (-faults labels -fault-rate 0.05 -fault-seed 7 -trials 10 -shards 4)
// twice and compares stdout byte for byte. The cache counters, which depend
// on which shard stops first under early exit, go to stderr.
func TestSelfStabShardedReplays(t *testing.T) {
	var outs [2]string
	for i := range outs {
		var stdout, stderr strings.Builder
		if err := runSelfStab(&stdout, &stderr, "labels", 0.05, 7, 10, false, 4); err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(stderr.String(), "cache: ") || !strings.Contains(stderr.String(), "schedule-dependent") {
			t.Errorf("run %d: stderr %q, want the marked cache line", i, stderr.String())
		}
		if strings.Contains(stdout.String(), "cache:") {
			t.Errorf("run %d: the cache line is on stdout:\n%s", i, stdout.String())
		}
		outs[i] = stdout.String()
	}
	if outs[0] != outs[1] {
		t.Errorf("stdout differs between runs of one seed:\n%s\n---\n%s", outs[0], outs[1])
	}
	if rows := strings.Count(outs[0], "10/10"); rows != 3 {
		t.Errorf("stdout holds %d recovery rows, want 3:\n%s", rows, outs[0])
	}
}
