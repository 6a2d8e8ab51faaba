package main

import (
	"encoding/csv"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cli"
	"repro/internal/httpapi"
)

// runSweep runs the command with args on a fresh flag set and returns its
// exit code and standard output.
func runSweep(t *testing.T, args ...string) (int, string) {
	t.Helper()
	outPath := filepath.Join(t.TempDir(), "stdout")
	out, err := os.Create(outPath)
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	stdout, osArgs, cmdLine := os.Stdout, os.Args, flag.CommandLine
	defer func() { os.Stdout, os.Args, flag.CommandLine = stdout, osArgs, cmdLine }()
	os.Stdout, os.Args = out, append([]string{"sweep"}, args...)
	flag.CommandLine = flag.NewFlagSet("sweep", flag.ContinueOnError)
	code := cli.Run("sweep", run)
	b, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	return code, string(b)
}

// An unknown algorithm is a usage error found while parsing flags: no
// cell runs and no journal is created, so the corrected command starts
// fresh instead of meeting a journal of another grid.
func TestUnknownAlgorithmIsUsageError(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "g.jsonl")
	code, out := runSweep(t, "-algorithms", "fcfs,bogus", "-shares", "0", "-jobs", "3", "-nodes", "32", "-journal", journal)
	if code != cli.ExitUsage {
		t.Errorf("exit code %d, want %d", code, cli.ExitUsage)
	}
	if out != "" {
		t.Errorf("wrote rows for a refused grid:\n%s", out)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Errorf("journal directory holds %v (%v), want nothing", entries, err)
	}
}

// A -lease-batch above the coordinator's claim cap is refused up front.
func TestLeaseBatchAboveCapIsUsageError(t *testing.T) {
	code, out := runSweep(t, "-connect", "http://127.0.0.1:1", "-lease-batch", strconv.Itoa(httpapi.MaxClaimBatch+1))
	if code != cli.ExitUsage || out != "" {
		t.Errorf("exit code %d, stdout %q; want %d and nothing", code, out, cli.ExitUsage)
	}
}

// Algorithm names are trimmed like shares and seeds.
func TestSpacedAlgorithmList(t *testing.T) {
	code, out := runSweep(t, "-algorithms", "fcfs, easy", "-shares", "0", "-jobs", "3", "-nodes", "32")
	if code != cli.ExitOK {
		t.Fatalf("exit code %d, want %d", code, cli.ExitOK)
	}
	rows, err := csv.NewReader(strings.NewReader(out)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	var algos []string
	for _, row := range rows[1:] {
		algos = append(algos, row[0])
	}
	if got := strings.Join(algos, ","); got != "fcfs,easy" {
		t.Errorf("rows for algorithms %q, want \"fcfs,easy\"", got)
	}
}
