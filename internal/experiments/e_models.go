package experiments

import (
	"fmt"
	"time"

	"repro/internal/decide"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/halting"
	"repro/internal/hereditary"
	"repro/internal/ids"
	"repro/internal/local"
	"repro/internal/props"
	"repro/internal/turing"
)

// RunE4 reproduces the Table 1 quadrant (¬B, ¬C): the generic Id-oblivious
// simulation A* agrees with ID-using deciders (the equality LD* = LD). The
// deciders here use identifiers inconsequentially — the regime where the
// simulation is lossless — and the agreement is measured instance by
// instance.
func RunE4(cfg Config) (*Result, error) {
	res := &Result{
		ID:     "E4",
		Title:  "Id-oblivious simulation A* vs ID-using deciders",
		Header: []string{"decider", "suite", "instances", "agreement"},
		OK:     true,
	}
	cases := []struct {
		alg   local.Algorithm
		suite *decide.Suite
	}{
		{local.AsOblivious(props.ThreeColoringVerifier()), props.ColoringSuite()},
		{local.AsOblivious(props.MISVerifier()), props.MISSuite()},
	}
	for _, tc := range cases {
		lift := hereditary.ObliviousLift(tc.alg, 8)
		rep := hereditary.CompareLift(tc.alg, lift, tc.suite)
		if rep.Agreed != rep.Instances {
			res.OK = false
		}
		res.Rows = append(res.Rows, []string{
			tc.alg.Name(), tc.suite.Name,
			fmt.Sprint(rep.Instances),
			fmt.Sprintf("%d/%d", rep.Agreed, rep.Instances),
		})
	}
	res.Notes = append(res.Notes,
		"under (¬B, ¬C) the domain search ranges over all of N; the finite domain here is lossless for these deciders",
		"contrast: E1-E3 show the same simulation failing once (B) or (C) is imposed")
	return res, nil
}

// RunE9 reproduces Figure 3 / Appendix A: pyramidal execution tables, the
// distance shrinkage that motivates taller fragments, and the checkability
// procedure on valid and corrupted instances.
func RunE9(cfg Config) (*Result, error) {
	limit := 20
	if cfg.Quick {
		limit = 8
	}
	res := &Result{
		ID:     "E9",
		Title:  "Pyramidal G(M, r): structure, distances, checkability",
		Header: []string{"machine", "tableSide", "n(G)", "gridDist", "pyrDist", "check", "corrupt rejected"},
		OK:     true,
	}
	for _, m := range []*turing.Machine{turing.Counter(2, '0'), turing.Counter(6, '0')} {
		p := halting.Params{Machine: m, R: 1, MaxSteps: 200, FragmentLimit: limit}
		asm, err := p.BuildPyramidalG()
		if err != nil {
			return nil, err
		}
		checkErr := asm.CheckPyramidal()
		gridDist, pyrDist := asm.DistanceShrinkage()

		// Corruption: damage a table label; the check must fail.
		corrupted, err := p.BuildPyramidalG()
		if err != nil {
			return nil, err
		}
		corrupted.Labeled.Labels[corrupted.TableBase[1][1]] =
			p.NodeLabel(turing.Cell{Sym: '1', State: turing.NoHead}, 1, 1)
		rejected := corrupted.CheckPyramidal() != nil

		if checkErr != nil || !rejected || pyrDist >= gridDist {
			res.OK = false
		}
		res.Rows = append(res.Rows, []string{
			m.Name,
			fmt.Sprint(len(asm.TableBase)),
			fmt.Sprint(asm.Labeled.N()),
			fmt.Sprint(gridDist),
			fmt.Sprint(pyrDist),
			boolCell(checkErr == nil),
			boolCell(rejected),
		})
	}
	res.Notes = append(res.Notes,
		"pyramid fragments use side 4 = 2^2 instead of the paper's 2^(3r) (documented scale substitution)",
		"distance shrinkage is why the appendix needs fragments of height 3r to keep fooling r-horizon algorithms")
	return res, nil
}

// RunE11 reproduces the extension NLD* = NLD: certificates carrying guessed
// identifiers let an Id-oblivious nondeterministic verifier match an
// ID-using one.
func RunE11(cfg Config) (*Result, error) {
	certTrials := 40
	if cfg.Quick {
		certTrials = 10
	}
	alg := local.AlgorithmFunc("cycle>=4", 1, func(view *graph.View) local.Verdict {
		if view.G.Degree(view.Root) != 2 {
			return local.No
		}
		nbrs := view.G.Neighbors(view.Root)
		if view.G.HasEdge(int(nbrs[0]), int(nbrs[1])) {
			return local.No
		}
		return local.Yes
	})
	verifier := hereditary.GuessIDVerifier(alg)

	yes := graph.UniformlyLabeled(graph.Cycle(6), "c")
	honest := hereditary.HonestIDCertificate(ids.Sequential(6))
	honestOK := decide.RunNLD(verifier, yes, honest).Accepted

	no := graph.UniformlyLabeled(graph.Cycle(3), "c")
	fooled := 0
	for _, cert := range decide.RandomCertificates(3, certTrials, []graph.Label{"0", "1", "2", "3", "4", "5"}, cfg.Seed) {
		if decide.RunNLD(verifier, no, cert).Accepted {
			fooled++
		}
	}
	res := &Result{
		ID:     "E11",
		Title:  "NLD* = NLD: guessed-identifier certificates",
		Header: []string{"check", "value", "pass"},
		OK:     honestOK && fooled == 0,
	}
	res.Rows = append(res.Rows,
		[]string{"honest certificate accepted (C6)", boolCell(honestOK), boolCell(honestOK)},
		[]string{fmt.Sprintf("random certificates fooling C3 (0/%d)", certTrials), fmt.Sprint(fooled), boolCell(fooled == 0)},
	)
	res.Notes = append(res.Notes,
		"the verifier re-runs the ID-using algorithm on guessed identifiers and rejects local collisions",
		"completeness: honest identifiers are always a valid certificate — nondeterminism subsumes identifiers")
	return res, nil
}

// RunE12 reproduces the extension LD* = LD for hereditary languages: the
// oblivious lift of an ID-using decider agrees with it across hereditary
// suites (and the properties really are hereditary, checked exhaustively on
// small instances).
func RunE12(cfg Config) (*Result, error) {
	res := &Result{
		ID:     "E12",
		Title:  "Hereditary languages: decider vs oblivious lift",
		Header: []string{"property", "hereditary", "instances", "agreement"},
		OK:     true,
	}
	type entry struct {
		prop  decide.Property
		alg   local.Algorithm
		suite *decide.Suite
	}
	entries := []entry{
		{
			props.TriangleFree(),
			local.AsOblivious(props.TriangleFreeVerifier()),
			&decide.Suite{
				Name: "triangle-free",
				Yes: []*graph.Labeled{
					graph.UniformlyLabeled(graph.Cycle(5), ""),
					graph.UniformlyLabeled(graph.Grid(2, 3), ""),
				},
				No: []*graph.Labeled{
					graph.UniformlyLabeled(graph.Cycle(3), ""),
					graph.UniformlyLabeled(graph.Complete(4), ""),
				},
			},
		},
		{
			props.BoundedDegree(2),
			local.AsOblivious(props.BoundedDegreeVerifier(2)),
			&decide.Suite{
				Name: "max-degree-2",
				Yes: []*graph.Labeled{
					graph.UniformlyLabeled(graph.Cycle(6), ""),
					graph.UniformlyLabeled(graph.Path(5), ""),
				},
				No: []*graph.Labeled{
					graph.UniformlyLabeled(graph.Star(5), ""),
				},
			},
		},
	}
	for _, e := range entries {
		hereditaryOK := hereditary.IsHereditary(e.prop, e.suite.Yes, 10) == nil
		lift := hereditary.ObliviousLift(e.alg, 8)
		rep := hereditary.CompareLift(e.alg, lift, e.suite)
		if !hereditaryOK || rep.Agreed != rep.Instances {
			res.OK = false
		}
		res.Rows = append(res.Rows, []string{
			e.prop.Name(), boolCell(hereditaryOK),
			fmt.Sprint(rep.Instances), fmt.Sprintf("%d/%d", rep.Agreed, rep.Instances),
		})
	}
	res.Notes = append(res.Notes,
		"hereditariness checked by exhaustive induced-subgraph enumeration on the yes-instances")
	return res, nil
}

// RunE13 is the model ablation, now over all three engine backends: the
// functional (sequential and sharded) evaluation paths and the flooding
// message-passing runtime must produce identical per-node verdicts; their
// relative cost is reported.
func RunE13(cfg Config) (*Result, error) {
	sizes := []int{20, 60}
	if cfg.Quick {
		sizes = []int{20}
	}
	res := &Result{
		ID:     "E13",
		Title:  "LOCAL runtime ablation: engine backends (sequential, sharded, message passing)",
		Header: []string{"n", "horizon", "identical", "seqTime", "shardTime", "mpTime", "messages", "knowledgeUnits"},
		OK:     true,
	}
	dec := engine.Decider{Name: "hash", Horizon: 2, Decide: func(view *graph.View) engine.Verdict {
		sum := 0
		for _, b := range []byte(view.Code()) {
			sum += int(b)
		}
		return engine.Verdict(sum%5 != 0)
	}}
	for _, n := range sizes {
		g := graph.Random(n, 0.1, cfg.Seed)
		l := graph.RandomLabels(g, []graph.Label{"a", "b"}, cfg.Seed+1)
		in := graph.NewInstance(l, ids.RandomBounded(n, ids.Quadratic(), cfg.Seed+2))

		type timedRun struct {
			out     engine.Outcome
			elapsed time.Duration
		}
		runOn := func(sched engine.Scheduler) timedRun {
			start := time.Now()
			out := engine.Eval(dec, in, engine.Options{Scheduler: sched})
			return timedRun{out: out, elapsed: time.Since(start)}
		}
		seq := runOn(engine.Sequential)
		shard := runOn(engine.Sharded)
		mp := runOn(engine.MessagePassing)

		identical := true
		for v := range seq.out.Verdicts {
			if seq.out.Verdicts[v] != shard.out.Verdicts[v] || seq.out.Verdicts[v] != mp.out.Verdicts[v] {
				identical = false
			}
		}
		if !identical {
			res.OK = false
		}
		res.Rows = append(res.Rows, []string{
			fmt.Sprint(n), "2", boolCell(identical),
			seq.elapsed.Round(time.Microsecond).String(),
			shard.elapsed.Round(time.Microsecond).String(),
			mp.elapsed.Round(time.Microsecond).String(),
			fmt.Sprint(mp.out.Stats.Messages),
			fmt.Sprint(mp.out.Stats.KnowledgeUnits),
		})
	}
	res.Notes = append(res.Notes,
		"the message-passing backend restricts flooded knowledge to the induced ball, matching the functional definition exactly",
		"all backends share one engine; the parity suite in internal/engine pins their verdict-level agreement")
	return res, nil
}
