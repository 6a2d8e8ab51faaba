// Command obscheck machine-validates a Prometheus text exposition
// (version 0.0.4) such as a `curl /metrics` capture: metric and label
// syntax, TYPE declarations, duplicate series, and histogram sample
// consistency. With -require it additionally demands that specific
// metric families are present, so CI can pin that a scrape of a live
// elastisimd actually carries the job-queue, HTTP, and kernel series.
//
// Usage:
//
//	curl -s http://127.0.0.1:9178/metrics | obscheck
//	obscheck -require elastisimd_tasks,elastisim_sim_events_total metrics.txt
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/cli"
	"repro/internal/obs"
)

func main() { cli.Main("obscheck", run) }

func run(ctx context.Context) error {
	var (
		require = flag.String("require", "", "comma-separated metric families that must be present")
		quiet   = flag.Bool("q", false, "suppress the family summary, report errors only")
	)
	flag.Parse()
	if flag.NArg() > 1 {
		fmt.Fprintln(os.Stderr, "usage: obscheck [-q] [-require fam1,fam2] [metrics.txt]")
		return cli.ErrUsage
	}

	var in io.Reader = os.Stdin
	name := "<stdin>"
	if flag.NArg() == 1 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		in, name = f, flag.Arg(0)
	}

	stats, err := obs.ValidateExposition(in)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}

	var missing []string
	for _, fam := range strings.Split(*require, ",") {
		if fam = strings.TrimSpace(fam); fam != "" && !stats.HasFamily(fam) {
			missing = append(missing, fam)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("%s: required families missing: %s (present: %s)",
			name, strings.Join(missing, ", "), strings.Join(stats.SortedFamilies(), ", "))
	}
	if !*quiet {
		for _, fam := range stats.SortedFamilies() {
			fmt.Printf("%-50s %s\n", fam, stats.Families[fam])
		}
		fmt.Printf("ok: %d series in %d families\n", stats.Series, len(stats.Families))
	}
	return nil
}
