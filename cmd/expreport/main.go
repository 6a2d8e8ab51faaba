// Command expreport regenerates every experiment of the reconstructed
// evaluation (E1–E10 plus the ablations) and prints the tables, optionally
// as markdown for EXPERIMENTS.md.
//
// Usage:
//
//	expreport                # all experiments, plain tables
//	expreport -only E2,E3    # a subset
//	expreport -markdown      # markdown output
//	expreport -jobs 150      # workload size for the batch experiments
//
// It also diffs self-profiling snapshots written by `elastisim
// -telemetry-out` or `sweep -telemetry-out`, for before/after comparisons
// of simulator-performance work:
//
//	expreport -snapshot-diff before.json,after.json
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"repro/internal/cli"
	"repro/internal/experiments"
	"repro/internal/telemetry"
)

func main() { cli.Main("expreport", run) }

func run(ctx context.Context) error {
	var (
		seed     = flag.Uint64("seed", 7, "workload seed")
		jobs     = flag.Int("jobs", 150, "job count for the batch experiments")
		only     = flag.String("only", "", "comma-separated experiment IDs (default: all)")
		markdown = flag.Bool("markdown", false, "emit markdown instead of plain tables")
		snapDiff = flag.String("snapshot-diff", "", "diff two telemetry snapshot JSON files: before.json,after.json")
	)
	flag.Parse()

	if *snapDiff != "" {
		return diffSnapshots(*snapDiff, *markdown)
	}

	selected := map[string]bool{}
	if *only != "" {
		var ids []string
		for _, x := range experiments.All {
			ids = append(ids, x.ID)
		}
		for _, id := range strings.Split(*only, ",") {
			id = strings.ToUpper(strings.TrimSpace(id))
			if !slices.Contains(ids, id) {
				return cli.Usagef("-only: unknown experiment %q (valid: %s)", id, strings.Join(ids, ","))
			}
			selected[id] = true
		}
	}

	// An interrupt stops between tables: tables printed so far stay on
	// stdout, the rest never start.
	for _, x := range experiments.All {
		if len(selected) > 0 && !selected[x.ID] {
			continue
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		t, _, err := x.Run(*seed, *jobs)
		if err != nil {
			return err
		}
		if *markdown {
			fmt.Print(t.Markdown())
		} else {
			t.Fprint(os.Stdout)
			fmt.Println()
		}
	}
	return nil
}

// diffSnapshots prints a before/after table of two telemetry snapshot
// files (comma-separated paths) written with -telemetry-out.
func diffSnapshots(spec string, markdown bool) error {
	paths := strings.Split(spec, ",")
	if len(paths) != 2 {
		return fmt.Errorf("-snapshot-diff wants two paths: before.json,after.json")
	}
	read := func(path string) (telemetry.Snapshot, error) {
		f, err := os.Open(strings.TrimSpace(path))
		if err != nil {
			return telemetry.Snapshot{}, err
		}
		defer f.Close()
		return telemetry.ReadSnapshot(f)
	}
	a, err := read(paths[0])
	if err != nil {
		return err
	}
	b, err := read(paths[1])
	if err != nil {
		return err
	}
	t := &experiments.Table{
		ID:     "SNAP",
		Title:  "Telemetry snapshot diff",
		Header: []string{"counter", "before", "after", "change"},
	}
	for _, row := range telemetry.Diff(a, b) {
		t.AddRow(row.Name,
			fmt.Sprintf("%g", row.A),
			fmt.Sprintf("%g", row.B),
			fmt.Sprintf("%+.1f%%", row.Change*100))
	}
	t.AddNote("wall.* and mem.* rows are machine-dependent; counters above them are deterministic")
	if markdown {
		fmt.Print(t.Markdown())
	} else {
		t.Fprint(os.Stdout)
	}
	return nil
}
