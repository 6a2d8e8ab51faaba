package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/cli"
	"repro/internal/obs"
)

func runMetrics(args []string) error {
	fs := flag.NewFlagSet("check metrics", flag.ExitOnError)
	var (
		require = fs.String("require", "", "comma-separated metric families that must be present")
		quiet   = fs.Bool("q", false, "suppress the family summary, report errors only")
	)
	fs.Parse(args)
	if fs.NArg() > 1 {
		fmt.Fprintln(os.Stderr, "usage: check metrics [-q] [-require fam1,fam2] [metrics.txt]")
		return cli.ErrUsage
	}

	var in io.Reader = os.Stdin
	name := "<stdin>"
	if fs.NArg() == 1 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		in, name = f, fs.Arg(0)
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
