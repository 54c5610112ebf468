package local

import (
	"repro/internal/engine"
	"repro/internal/graph"
)

// The operational side of the LOCAL model — every node flooding what it
// knows to its neighbours in synchronous rounds — lives in the engine as its
// MessagePassing backend (it was born in this file and moved there when all
// runners were unified); ID-using algorithms reach it through engine.Eval
// with EngineDecider. Tests verify that the operational and functional
// evaluation paths agree node for node (experiment E13).

// RunMessagePassingOblivious is the Id-oblivious operational runtime: the
// protocol routes on throwaway internal addresses, and the assembled views
// are stripped of identifiers before the algorithm sees them.
func RunMessagePassingOblivious(alg ObliviousAlgorithm, l *graph.Labeled) Outcome {
	return engine.EvalOblivious(EngineObliviousDecider(alg), l,
		engine.Options{Scheduler: engine.MessagePassing})
}
