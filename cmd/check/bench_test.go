package main

import (
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: repro/internal/des
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkScheduleCancel 	48640834	        49.15 ns/op	      53 B/op	       0 allocs/op
BenchmarkScheduleFire-4 	88815018	        26.95 ns/op	       0 B/op	       0 allocs/op
BenchmarkBacklogFire    	15966444	       150.4 ns/op	       3 B/op	       0 allocs/op
PASS
ok  	repro/internal/des	10.531s
pkg: repro/internal/fluid
BenchmarkSolveDisjoint-16 	 6924441	       345.1 ns/op	     176 B/op	       3 allocs/op
PASS
`

func TestParseBenchOutput(t *testing.T) {
	got, err := parseBenchOutput(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	want := []measurement{
		{name: "des/BenchmarkScheduleCancel", nsOp: 49.15, bytes: 53, allocs: 0, hasMem: true},
		{name: "des/BenchmarkScheduleFire", nsOp: 26.95, bytes: 0, allocs: 0, hasMem: true},
		{name: "des/BenchmarkBacklogFire", nsOp: 150.4, bytes: 3, allocs: 0, hasMem: true},
		{name: "fluid/BenchmarkSolveDisjoint", nsOp: 345.1, bytes: 176, allocs: 3, hasMem: true},
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d measurements, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("measurement %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestParseBenchOutputNoMem(t *testing.T) {
	got, err := parseBenchOutput(strings.NewReader(
		"pkg: repro/internal/des\nBenchmarkScheduleFire-2 \t100\t 31.00 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].hasMem || got[0].nsOp != 31.00 {
		t.Fatalf("got %+v", got)
	}
}
