package main

import (
	"context"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cli"
)

// runExpreport runs the command with args on a fresh flag set and returns
// its standard output and error.
func runExpreport(t *testing.T, args ...string) (string, error) {
	t.Helper()
	outPath := filepath.Join(t.TempDir(), "stdout")
	out, err := os.Create(outPath)
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	stdout, osArgs, cmdLine := os.Stdout, os.Args, flag.CommandLine
	defer func() { os.Stdout, os.Args, flag.CommandLine = stdout, osArgs, cmdLine }()
	os.Stdout, os.Args = out, append([]string{"expreport"}, args...)
	flag.CommandLine = flag.NewFlagSet("expreport", flag.ContinueOnError)
	runErr := run(context.Background())
	b, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	return string(b), runErr
}

// An unknown -only ID is a usage error naming the valid IDs, found before
// any table runs.
func TestOnlyUnknownIDIsUsageError(t *testing.T) {
	out, err := runExpreport(t, "-only", "E2,E11")
	if !errors.Is(err, cli.ErrUsage) {
		t.Fatalf("error %v, want a usage error", err)
	}
	for _, want := range []string{`"E11"`, "E1,E2,E3,E4,E5,E6,E7,E8,E9,E10,A1,A2,A3,A4"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %s", err, want)
		}
	}
	if out != "" {
		t.Errorf("printed tables for a refused selection:\n%s", out)
	}
}

// A -jobs below 3 is a usage error naming E4's third, found before any
// table runs, whichever tables are selected.
func TestJobsBelowThreeIsUsageError(t *testing.T) {
	for _, args := range [][]string{
		{"-jobs", "0"}, {"-jobs", "-5"}, {"-jobs", "2", "-only", "E4"}, {"-jobs", "2", "-only", "E6"},
	} {
		out, err := runExpreport(t, args...)
		if !errors.Is(err, cli.ErrUsage) || !strings.Contains(err.Error(), "E4 runs a third of -jobs") {
			t.Errorf("%v: error %v, want a usage error naming E4's third", args, err)
		}
		if out != "" {
			t.Errorf("%v: printed tables for a refused job count:\n%s", args, out)
		}
	}
	if _, err := runExpreport(t, "-jobs", "3", "-only", "E4"); err != nil {
		t.Errorf("-jobs 3 -only E4: %v", err)
	}
}

// -only IDs are trimmed and case-insensitive, and select tables in report
// order.
func TestOnlySelectsTables(t *testing.T) {
	out, err := runExpreport(t, "-markdown", "-jobs", "20", "-only", "a2, e6")
	if err != nil {
		t.Fatal(err)
	}
	e6, a2 := strings.Index(out, "### E6 "), strings.Index(out, "### A2 ")
	if e6 < 0 || a2 < e6 || strings.Count(out, "### ") != 2 {
		t.Errorf("want tables E6 then A2, got:\n%s", out)
	}
}
