package main

import "time"

// The machines the benchmark runs on are shared with other tenants, and
// their speed drifts with the tenants' load, over seconds and over minutes:
// all of a run's answers move together, and so do runs minutes apart. A
// fixed reference loop, timed between answers, tracks that drift, and the
// end-to-end latency is reported in units of it (see README.md).

// refLoopIters is the length of the reference loop: about 0.4 ms on the
// machine the benchmark was sized on.
const refLoopIters = 200_000

// refEvery is how often, in wall time, a window times the reference loop.
const refEvery = 50 * time.Millisecond

// refSink keeps the reference loop's result live.
var refSink uint64

// refLoop runs the reference loop once and returns its time in ms. The loop
// is a dependent chain of register arithmetic in the benchmark's own code,
// so no change to the program under test makes it faster or slower, and it
// allocates nothing, so it leaves the collector's state alone.
func refLoop() float64 {
	begin := time.Now()
	h := uint64(1)
	for k := 0; k < refLoopIters; k++ {
		h = h*6364136223846793005 + 1442695040888963407
		h ^= h >> 13
	}
	refSink += h
	return float64(time.Since(begin).Nanoseconds()) / 1e6
}
