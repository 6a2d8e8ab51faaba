package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cli"
	"repro/internal/telemetry"
)

func runTrace(args []string) error {
	fs := flag.NewFlagSet("check trace", flag.ExitOnError)
	quiet := fs.Bool("q", false, "suppress the per-track summary, report errors only")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: check trace [-q] trace.json")
		return cli.ErrUsage
	}
	path := fs.Arg(0)
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	stats, err := telemetry.ValidateChromeTrace(data)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	open := 0
	for _, k := range stats.SortedTrackKeys() {
		b := stats.Tracks[k]
		open += b.OpenSpans
		if !*quiet {
			fmt.Printf("pid %d tid %-5d  %6d events  %5d spans  [%.3f, %.3f] µs\n",
				k.Pid, k.Tid, b.Events, b.Spans, b.FirstTS, b.LastTS)
		}
	}
	if open > 0 {
		return fmt.Errorf("%s: %d span(s) left open (B without E)", path, open)
	}
	if !*quiet {
		fmt.Printf("ok: %d events on %d tracks\n", stats.Events, len(stats.Tracks))
	}
	return nil
}
