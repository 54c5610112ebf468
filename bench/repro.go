package main

import (
	"slices"
	"time"

	"repro/internal/experiments"
)

// tinyExperiments are the experiments a tiny run (the harness test) passes
// over: the ones that finish in milliseconds.
var tinyExperiments = []string{"E2", "E4", "E6", "E11", "E12", "E13", "E15"}

// registryCalls is the number of experiment-list calls one timed set-up
// makes.
const registryCalls = 1000

// reproSet is the list of experiments a pass runs.
func reproSet(tiny bool) []experiments.Experiment {
	reg := experiments.Registry()
	if tiny {
		reg = slices.DeleteFunc(reg, func(x experiments.Experiment) bool {
			return !slices.Contains(tinyExperiments, x.ID)
		})
	}
	return reg
}

// runRepro: passes over the registered experiments at full size, as
// cmd/repro renders them. One pass is one answer; each experiment that
// completes is one unit of work and one checked operation (it must report
// OK).
func runRepro(e *env) error {
	// Every experiment builds its own instances inside Run, so the set-up a
	// user of cmd/repro pays is obtaining the experiment list. One call takes
	// well under a microsecond, so each timed set-up makes registryCalls of
	// them and books the time per call (after the window, below).
	reg, err := setup(e, func() ([]experiments.Experiment, error) {
		var reg []experiments.Experiment
		for i := 0; i < registryCalls; i++ {
			reg = reproSet(e.tiny)
		}
		return reg, nil
	}, nil)
	if err != nil {
		return err
	}
	cfg := experiments.Config{Seed: e.seed}
	e.in.ints(cfg.Seed)
	for _, x := range reg {
		e.in.str(x.ID)
	}
	perExp := map[string][]float64{}
	err = e.measure(func(w *window) error {
		for w.more() {
			pass := w.tr.begin("pass", 0, 0)
			var took time.Duration
			for _, x := range reg {
				// A pass is long, so the reference loop is timed between
				// its experiments too.
				w.calibrate()
				s := w.tr.begin("experiments.Run/"+x.ID, pass.id(), pass.id())
				begin := time.Now()
				res, err := x.Run(cfg)
				d := time.Since(begin)
				s.end()
				took += d
				e.rep.check(err == nil && res.OK)
				if w.tr != nil {
					perExp[x.ID] = append(perExp[x.ID], d.Seconds())
				}
			}
			pass.end()
			w.record(took, float64(len(reg)))
		}
		return nil
	})
	if err != nil {
		return err
	}
	for i := range e.setupTimes {
		e.setupTimes[i] /= registryCalls
	}
	for id, ts := range perExp {
		e.rep.set("exp."+id+"_s", median(ts), len(ts))
	}
	return nil
}
