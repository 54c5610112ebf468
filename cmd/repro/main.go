// Command repro regenerates every table and figure experiment of the
// reproduction and prints the result rows. With no arguments it runs the
// full registry (E1-E16); pass experiment ids to run a subset, and -quick
// for reduced parameter sweeps.
//
// Usage:
//
//	repro [-quick] [-seed N] [E1 E5 ...]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "repro:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("repro", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "reduced parameter sweeps")
	seed := fs.Int64("seed", 42, "pseudo-randomness seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := experiments.Config{Quick: *quick, Seed: *seed}

	selected := fs.Args()
	if len(selected) == 0 {
		out, allOK, err := experiments.RunAll(cfg)
		fmt.Print(out)
		if err != nil {
			return err
		}
		if !allOK {
			return fmt.Errorf("some experiments reported ATTENTION")
		}
		return nil
	}
	ok := true
	for _, id := range selected {
		exp, found := experiments.Find(id)
		if !found {
			return fmt.Errorf("unknown experiment %q (known: E1..E16)", id)
		}
		res, err := exp.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", exp.ID, err)
		}
		fmt.Print(experiments.Render(res))
		fmt.Println()
		if !res.OK {
			ok = false
		}
	}
	if !ok {
		return fmt.Errorf("some experiments reported ATTENTION")
	}
	return nil
}
