package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/cli"
)

type refMetrics struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

type refBench struct {
	Note  string     `json:"note"`
	After refMetrics `json:"after"`
}

type refFile struct {
	Microbenchmarks map[string]refBench `json:"microbenchmarks"`
}

type measurement struct {
	name   string // "des/BenchmarkScheduleFire"
	nsOp   float64
	bytes  float64
	allocs float64
	hasMem bool
}

func runBench(args []string) error {
	fs := flag.NewFlagSet("check bench", flag.ExitOnError)
	var (
		refPath = fs.String("ref", "BENCH_4.json", "reference report (BENCH_*.json)")
		input   = fs.String("input", "-", "benchmark output to check (- = stdin)")
		margin  = fs.Float64("margin", 4.0, "allowed ns/op slowdown factor vs the reference")
	)
	fs.Parse(args)
	if fs.NArg() != 0 {
		fs.Usage()
		return cli.ErrUsage
	}

	raw, err := os.ReadFile(*refPath)
	if err != nil {
		return err
	}
	var ref refFile
	if err := json.Unmarshal(raw, &ref); err != nil {
		return fmt.Errorf("parsing %s: %w", *refPath, err)
	}
	if len(ref.Microbenchmarks) == 0 {
		return fmt.Errorf("%s has no microbenchmarks section", *refPath)
	}

	var in io.Reader = os.Stdin
	if *input != "-" {
		f, err := os.Open(*input)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	measured, err := parseBenchOutput(in)
	if err != nil {
		return err
	}

	matched, failures := 0, 0
	for _, m := range measured {
		rb, ok := ref.Microbenchmarks[m.name]
		if !ok {
			continue
		}
		matched++
		limit := rb.After.NsPerOp * *margin
		status := "ok"
		if m.nsOp > limit {
			status = fmt.Sprintf("FAIL: %.4g ns/op exceeds %.4g (ref %.4g x margin %g)",
				m.nsOp, limit, rb.After.NsPerOp, *margin)
			failures++
		} else if m.hasMem && m.allocs > rb.After.AllocsPerOp+1 {
			status = fmt.Sprintf("FAIL: %g allocs/op exceeds reference %g (+1 tolerance)",
				m.allocs, rb.After.AllocsPerOp)
			failures++
		} else if m.hasMem && m.bytes > rb.After.BytesPerOp+64 {
			// Bytes per op are host-independent like allocs; the small
			// absolute tolerance absorbs amortized growth rounding without
			// letting a reintroduced per-op allocation (48+ bytes) through.
			status = fmt.Sprintf("FAIL: %g B/op exceeds reference %g (+64 tolerance)",
				m.bytes, rb.After.BytesPerOp)
			failures++
		}
		fmt.Printf("check bench: %-40s %10.4g ns/op (ref %.4g)  %s\n",
			m.name, m.nsOp, rb.After.NsPerOp, status)
	}
	if matched == 0 {
		return fmt.Errorf("no benchmark in the input matched %s — harness and reference have drifted apart", *refPath)
	}
	if failures > 0 {
		return fmt.Errorf("%d of %d reference benchmarks regressed beyond the %gx margin", failures, matched, *margin)
	}
	fmt.Printf("check bench: %d reference benchmarks within margin\n", matched)
	return nil
}

// parseBenchOutput extracts benchmark result lines from `go test -bench`
// output, tracking the current package from "pkg:" headers so names can
// be qualified the way the reference file keys them.
func parseBenchOutput(f io.Reader) ([]measurement, error) {
	var out []measurement
	pkg := ""
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(line, "pkg:"); ok {
			full := strings.TrimSpace(rest)
			pkg = full[strings.LastIndex(full, "/")+1:]
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// Benchmark result shape: Name-N  iters  X ns/op [Y B/op  Z allocs/op]
		if len(fields) < 4 || fields[3] != "ns/op" {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		nsOp, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			return nil, fmt.Errorf("parsing ns/op in %q: %w", line, err)
		}
		m := measurement{name: pkg + "/" + name, nsOp: nsOp}
		for i := 4; i+1 < len(fields); i += 2 {
			switch fields[i+1] {
			case "allocs/op":
				if v, err := strconv.ParseFloat(fields[i], 64); err == nil {
					m.allocs = v
					m.hasMem = true
				}
			case "B/op":
				if v, err := strconv.ParseFloat(fields[i], 64); err == nil {
					m.bytes = v
				}
			}
		}
		out = append(out, m)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
