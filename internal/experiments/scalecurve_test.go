package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/distwork"
)

// TestCoordinatorScaleCurve is the measurement harness behind
// BENCH_4.json's coordinator curves: it settles a synthetic grid
// through the coordinator machinery (no simulations — the cell result
// is precomputed) and reports wall clock, settlement throughput, and
// peak live heap as one JSON line. It only runs when SWEEP_BENCH_CELLS
// is set; run it manually per size:
//
//	SWEEP_BENCH_CELLS=1000000 \
//	  go test -run TestCoordinatorScaleCurve -v ./internal/experiments/
//
// The grid runs the way a coordinator serves it: cursor-fed evicting
// store, one journal file, 2ms group commit, 256-cell batched
// claim/finish. (BENCH_4.json's resident and resident-sync curves
// measured store configurations that no longer exist.)
func TestCoordinatorScaleCurve(t *testing.T) {
	cellsEnv := os.Getenv("SWEEP_BENCH_CELLS")
	if cellsEnv == "" {
		t.Skip("set SWEEP_BENCH_CELLS to run the scale-curve harness")
	}
	nCells, err := strconv.Atoi(cellsEnv)
	if err != nil || nCells < 1 {
		t.Fatalf("SWEEP_BENCH_CELLS: %q", cellsEnv)
	}

	// One algorithm × one share × nCells seeds: grid size == nCells.
	seeds := make([]uint64, nCells)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	cfg := (&SweepConfig{
		Algorithms: []string{"fcfs"}, Shares: []float64{0.5},
		Seeds: seeds, Jobs: 100, Nodes: 128,
	}).withDefaults()

	// A realistic canonical result (~600 bytes encoded) so journal and
	// resident-memory costs match a real sweep's.
	result := func(c GridCell) string {
		p := SweepPoint{
			Algorithm: c.Algorithm, MalleableShare: c.Share, Seed: c.Seed,
			Jobs: c.Jobs, Events: uint64(3000 + c.Index),
		}
		p.Summary.Makespan = 143726.6
		p.Summary.Utilization = 0.83
		p.Summary.MeanWait = 512.4
		p.Summary.Completed = c.Jobs
		enc, err := EncodeCellResult(p)
		if err != nil {
			panic(err)
		}
		return enc
	}

	// Peak-live-heap sampler.
	var peak atomic.Uint64
	stopSample := make(chan struct{})
	var sampleWG sync.WaitGroup
	sampleWG.Add(1)
	go func() {
		defer sampleWG.Done()
		var mem runtime.MemStats
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopSample:
				return
			case <-tick.C:
				runtime.ReadMemStats(&mem)
				if h := mem.HeapAlloc; h > peak.Load() {
					peak.Store(h)
				}
			}
		}
	}()

	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")
	workers := runtime.GOMAXPROCS(0)
	start := time.Now()
	grid, err := OpenGrid(path, cfg, GridOptions{GroupCommit: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	store := grid.Store()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("w%d", w)
			items := make([]distwork.FinishItem, 0, 256)
			for {
				batch := store.TryClaimBatch(name, 256)
				if len(batch) == 0 {
					return
				}
				items = items[:0]
				for _, task := range batch {
					items = append(items, distwork.FinishItem{ID: task.ID, Result: result(task.Payload)})
				}
				for _, err := range store.FinishBatch(name, items) {
					if err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if got := grid.Store().Counts()[distwork.StateDone]; got != nCells {
		t.Fatalf("settled %d cells, want %d", got, nCells)
	}
	grid.Close()
	wall := time.Since(start)
	close(stopSample)
	sampleWG.Wait()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	fmt.Printf("scalecurve: {\"mode\":\"streamed\",\"cells\":%d,\"wall_s\":%.2f,\"cells_per_s\":%.0f,\"peak_heap_mb\":%.1f,\"sys_mb\":%.1f}\n",
		nCells, wall.Seconds(), float64(nCells)/wall.Seconds(),
		float64(peak.Load())/(1<<20), float64(mem.Sys)/(1<<20))
}
