// Command check holds the repository's artifact validators, one
// subcommand per artifact, so CI gates on machine-checked outputs with a
// single tool. Every subcommand exits 0 when the artifact is valid, 1 on a
// violation, 2 on a usage error.
//
//	check trace [-q] trace.json
//
// validates a Chrome trace_event JSON file written by `elastisim
// -trace-out`: it must parse, every event needs a name, a known phase, and
// a track, timestamps must be non-decreasing per track, and every B (span
// begin) needs a matching E. Prints per-track span counts unless -q.
//
//	curl -s http://127.0.0.1:9178/metrics | check metrics
//	check metrics [-q] [-require fam1,fam2] [metrics.txt]
//
// validates a Prometheus text exposition (version 0.0.4): metric and label
// syntax, TYPE declarations, duplicate series, and histogram sample
// consistency. With -require it additionally demands that specific metric
// families are present, so CI can pin that a scrape of a live elastisimd
// actually carries the job-queue, HTTP, and kernel series.
//
//	go test -run '^$' -bench . -benchmem ./internal/des/ | check bench -ref BENCH_4.json
//
// compares `go test -bench` output against the committed reference
// numbers in a BENCH_*.json report and fails on gross regressions. It is
// CI's perf tripwire: the margin is deliberately wide (hosts differ), so
// only order-of-magnitude mistakes — an accidental O(n) scan on the event
// path, a reintroduced per-event allocation — trip it, not scheduler
// noise. Benchmark names are keyed as "<package-basename>/<BenchmarkName>"
// (GOMAXPROCS suffix stripped) and matched against the reference file's
// "microbenchmarks" section; the "after" numbers are the reference. ns/op
// may exceed the reference by at most -margin (wall-clock check,
// host-dependent). allocs/op may exceed it by at most one (allocation
// counts are host-independent, so the zero-allocation guarantees on the
// kernel hot paths are pinned tightly).
//
//	check reach
//
// fails naming every non-test function in internal/ and elastisim/
// (elastisim's exported API aside) that no main package links.
package main

import (
	"context"
	"fmt"
	"os"

	"repro/internal/cli"
)

func main() { cli.Main("check", run) }

var subcommands = map[string]func(args []string) error{
	"trace":   runTrace,
	"metrics": runMetrics,
	"bench":   runBench,
	"reach":   runReach,
}

func run(context.Context) error {
	if len(os.Args) >= 2 {
		if sub, ok := subcommands[os.Args[1]]; ok {
			return sub(os.Args[2:])
		}
	}
	fmt.Fprintln(os.Stderr, "usage: check trace|metrics|bench|reach [flags] [file]")
	return cli.ErrUsage
}
