// Command bench is the repository's end-to-end benchmark. It times what users
// run — the E1–E16 reproduction, localsim-style sweeps, the message-passing
// runtimes, decided requests and incremental update streams — and, in a
// separate traced run, splits each workload into the layers it crosses.
//
// One workload, as the result line a harness reads (run from the repository
// root; bench/run.sh builds this command and cmd/decided first):
//
//	bench -workload sweep_hit -seed 1 -seconds 10 -trace 0
//
// Every workload, each in its own child process, into one results file:
//
//	bench -seed 1 -out results.json [-trace 1] [-spans DIR]
//
// Two sets of results files against the bounds in BENCHMARK.json:
//
//	bench -compare DIR_A DIR_B
//
// bench/README.md documents the workloads, the metrics and their layers.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the parsed command-line settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spans    string
	out      string
	decided  string
	workdir  string
	spec     string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	var compare string
	fs.StringVar(&o.workload, "workload", "", "run this one workload in-process and print its result line")
	fs.Int64Var(&o.seed, "seed", 1, "seed every input is derived from")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of each timed window, in seconds")
	fs.IntVar(&trace, "trace", 0, "1 reports the per-layer metrics of a traced run; 0 the end-to-end metrics")
	fs.StringVar(&o.spans, "spans", "", "directory a traced run writes its spans to (none when empty)")
	fs.StringVar(&o.out, "out", "", "results file of a run over every workload")
	fs.StringVar(&o.decided, "decided", ".bench_build/decided", "decided binary the serve workload starts")
	fs.StringVar(&o.workdir, "workdir", ".bench_build/tmp", "directory for the serve workload's verdict log")
	fs.StringVar(&o.spec, "spec", "BENCHMARK.json", "benchmark definition holding the metric bounds")
	fs.StringVar(&compare, "compare", "", "compare results directory (or file) A with the one given as the argument after it")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintf(stderr, "bench: -trace must be 0 or 1, got %d\n", trace)
		return 2
	}
	o.trace = trace == 1
	if o.seconds <= 0 {
		fmt.Fprintf(stderr, "bench: -seconds must be positive, got %v\n", o.seconds)
		return 2
	}

	var err error
	switch {
	case compare != "":
		if fs.NArg() != 1 {
			fmt.Fprintln(stderr, "bench: -compare A B needs exactly one argument after A")
			return 2
		}
		err = runCompare(stdout, o.spec, compare, fs.Arg(0))
	case fs.NArg() > 0:
		err = fmt.Errorf("unexpected arguments %v", fs.Args())
	case o.workload != "":
		err = runWorkload(stdout, o)
	default:
		err = runSuite(stdout, stderr, o)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}
