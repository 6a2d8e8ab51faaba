// Package repro hosts the top-level benchmark harness: one sub-benchmark
// per table of the reconstructed evaluation (see DESIGN.md §3). Each
// regenerates its table through experiments.All and prints it once, so
//
//	go test -run '^$' -bench BenchmarkExperiments -benchmem
//
// reproduces every row/series reported in EXPERIMENTS.md, and ns/op is
// the simulator's own cost of producing the table.
package repro

import (
	"fmt"
	"os"
	"sync"
	"testing"

	"repro/internal/experiments"
)

const (
	benchSeed = 7
	benchJobs = 150
)

// BenchmarkExperiments runs every table; select one with
// -bench BenchmarkExperiments/E3.
func BenchmarkExperiments(b *testing.B) {
	for _, x := range experiments.All {
		var printOnce sync.Once
		b.Run(x.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				t, _, err := x.Run(benchSeed, benchJobs)
				if err != nil {
					b.Fatal(err)
				}
				printOnce.Do(func() {
					fmt.Println()
					t.Fprint(os.Stdout)
				})
			}
		})
	}
}
