// Quickstart: define a labelled-graph property, write its Id-oblivious local
// verifier, and run it in the LOCAL model — both by direct view evaluation
// and on the message-passing runtime, which runs the synchronous flooding
// protocol round by round.
//
// The property here is proper 3-colouring, one of the paper's running
// examples of a locally decidable property where identifiers play no role.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/local"
	"repro/internal/props"
)

func main() {
	// A 6-cycle with a proper 2-colouring (also a proper 3-colouring).
	good := graph.NewLabeled(graph.Cycle(6), []graph.Label{"0", "1", "0", "1", "0", "1"})
	// The same cycle with one clash.
	bad := graph.NewLabeled(graph.Cycle(6), []graph.Label{"0", "0", "1", "0", "1", "0"})

	verifier := props.ThreeColoringVerifier()

	fmt.Println("== proper 3-colouring, Id-oblivious verifier, horizon 1")
	for name, inst := range map[string]*graph.Labeled{"good": good, "bad": bad} {
		out := local.RunOblivious(verifier, inst)
		fmt.Printf("%-5s accepted=%v verdicts=%v\n", name, out.Accepted, out.Verdicts)
	}

	// Decision semantics: yes-instances need ALL nodes to say yes;
	// no-instances need at least one no. The clash in `bad` is seen by the
	// two adjacent equal-coloured nodes only — locality in action.

	fmt.Println("\n== same verifier on the message-passing runtime")
	out := local.RunMessagePassingOblivious(verifier, good)
	fmt.Printf("good  accepted=%v (flooding, %d synchronous rounds)\n",
		out.Accepted, verifier.Horizon())

	// Custom properties are one function away:
	atMostOneRed := local.ObliviousFunc("<=1-red-nbr", 1, func(view *graph.View) local.Verdict {
		red := 0
		for _, u := range view.G.Neighbors(view.Root) {
			if view.Labels[u] == "red" {
				red++
			}
		}
		return local.Verdict(red <= 1)
	})
	l := graph.NewLabeled(graph.Star(5), []graph.Label{"blue", "red", "red", "blue", "blue"})
	fmt.Println("\n== custom property on a star")
	fmt.Printf("accepted=%v (centre sees two red leaves)\n",
		local.RunOblivious(atMostOneRed, l).Accepted)
}
