package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/elastisim"
	"repro/internal/distwork"
	"repro/internal/experiments"
	"repro/internal/obs"
)

// sweepWorkload runs a journaled parameter grid of short simulations.
type sweepWorkload struct {
	cfg  experiments.SweepConfig
	want []byte // the grid's CSV from the in-process, unjournaled Sweep
	ops  int
}

// sweepBatch is what a round keeps: the open grid, the CSV it emitted and
// what its registry saw.
type sweepBatch struct {
	grid    *experiments.Grid
	journal string        // in a scratch directory of its own, removed by close
	took    time.Duration // how long OpenGrid took
	csv     bytes.Buffer
	agg     elastisim.TelemetrySnapshot // summed over the cells
	emit    time.Duration
	onDisk  journalStats
}

func (w *sweepWorkload) digest() string {
	sum := sha256.Sum256(w.want)
	return hex.EncodeToString(sum[:])
}

func (w *sweepWorkload) warmup(e *env) error {
	seeds, jobs := 32, 150
	if e.short {
		seeds, jobs = 1, 30
	}
	w.cfg = experiments.SweepConfig{
		Algorithms: []string{"fcfs", "easy", "adaptive"},
		Shares:     []float64{0, 0.5, 1},
		Jobs:       jobs, Nodes: 128, Workers: e.workers,
	}
	for i := 0; i < seeds; i++ {
		w.cfg.Seeds = append(w.cfg.Seeds, e.seed<<8+uint64(i))
	}
	pts, err := experiments.Sweep(w.cfg)
	if err != nil {
		return err
	}
	for i := range pts {
		pts[i].WallMillis = 0 // the journal keeps no wall-clock column
	}
	var buf bytes.Buffer
	err = experiments.WriteSweepCSV(&buf, pts)
	w.want = buf.Bytes()
	return err
}

// open is a round's set-up: a grid over a fresh journal.
func (w *sweepWorkload) open(e *env, reg *obs.Registry) (*sweepBatch, error) {
	dir, err := e.scratch("sweep-")
	if err != nil {
		return nil, err
	}
	b := &sweepBatch{journal: filepath.Join(dir, "grid.jsonl")}
	t0 := time.Now()
	b.grid, err = experiments.OpenGrid(b.journal, w.cfg, experiments.GridOptions{
		Workers: e.workers, Shards: journalShards, GroupCommit: groupCommit, Metrics: reg,
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	b.took = time.Since(t0)
	return b, nil
}

// close closes the grid and removes its journal.
func (b *sweepBatch) close() error {
	defer os.RemoveAll(filepath.Dir(b.journal))
	return b.grid.Close()
}

func (w *sweepWorkload) setup(e *env) (time.Duration, error) {
	b, err := w.open(e, nil)
	if err != nil {
		return 0, err
	}
	return b.took, b.close()
}

func (w *sweepWorkload) round(e *env, log *spanLog) (*roundStats, error) {
	reg := obs.NewRegistry()
	cells := experiments.GridSize(w.cfg)
	root := log.begin("bench.batch", -1, w.ops)
	defer log.end(root)

	t0 := time.Now()
	batch, err := w.open(e, reg)
	if err != nil {
		return nil, err
	}
	grid := batch.grid
	r := &roundStats{setup: batch.took, ops: cells, release: batch.close}
	log.add("experiments.open_grid", root, w.ops, t0, time.Now())

	stop := meter()
	if log == nil {
		err = grid.Run(context.Background())
	} else {
		err = leaseRun(grid, e.workers, log, root, w.ops)
	}
	t1 := time.Now()
	rows := 0
	if err == nil {
		rows, err = grid.EmitCSV(&batch.csv, &batch.agg)
	}
	batch.emit = time.Since(t1)
	r.use = stop()
	if err != nil {
		_ = r.done()
		return nil, err
	}
	log.add("experiments.emit_csv", root, w.ops, t1, t1.Add(batch.emit))
	w.ops += cells

	r.failed = cells - rows
	if !bytes.Equal(batch.csv.Bytes(), w.want) {
		r.failed = cells
		fmt.Fprintln(os.Stderr, "bench: sweep_cells: journaled grid CSV differs from the in-process sweep")
	}
	// Cells cannot be told apart from outside Grid.Run: the op latency is
	// the batch's wall time per cell and worker.
	r.latency = []time.Duration{r.use.wall * time.Duration(e.workers) / time.Duration(cells)}
	r.events = batch.agg.Kernel.Fired
	batch.onDisk = readJournal(reg, "sweep", batch.journal)
	r.keep = batch
	return r, nil
}

// leaseRun settles the grid like Grid.Run, but through the batched lease
// calls a remote worker uses, so the traced pass can put a span around
// every claim, cell and finish.
func leaseRun(grid *experiments.Grid, workers int, log *spanLog, root, op int) error {
	const leaseBatch = 4
	store, run := grid.Store(), grid.Runner()
	parent := log.begin("experiments.run", root, op)
	defer log.end(parent)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			for {
				t0 := time.Now()
				tasks := store.TryClaimBatch(name, leaseBatch)
				log.add("distwork.claim_batch", parent, op, t0, time.Now())
				if len(tasks) == 0 {
					return
				}
				items := make([]distwork.FinishItem, len(tasks))
				for j, t := range tasks {
					t0 = time.Now()
					res, err := run(context.Background(), store, t)
					log.add("experiments.cell", parent, op, t0, time.Now())
					items[j] = distwork.FinishItem{ID: t.ID, Result: res}
					if err != nil {
						items[j].Error = err.Error()
					}
				}
				t0 = time.Now()
				store.FinishBatch(name, items)
				log.add("distwork.finish_batch", parent, op, t0, time.Now())
			}
		}(fmt.Sprintf("lease-%d", i))
	}
	wg.Wait()
	return grid.Err()
}

func (w *sweepWorkload) layers(e *env, plain, traced *roundStats, log *spanLog) (metricSet, error) {
	m := metricSet{}
	b := plain.keep.(*sweepBatch)
	cells := plain.ops
	wall := seconds(plain.use.wall)
	kernelCounts(m, b.agg, cells)

	m.set("experiments.open_grid_s", seconds(plain.setup), 1)
	m.set("experiments.emit_csv_s", seconds(b.emit), 1)
	m.set("experiments.cells_per_s", float64(cells)/wall, cells)
	// A fixed stride of cells, run directly: the same cells for a given seed.
	var direct []time.Duration
	for i := 0; i < cells && len(direct) < 32; i += max(cells/32, 1) {
		t0 := time.Now()
		if _, err := experiments.RunCell(context.Background(), experiments.CellAt(w.cfg, i)); err != nil {
			return nil, err
		}
		direct = append(direct, time.Since(t0))
	}
	mean := seconds(sum(direct)) / float64(len(direct))
	m.set("experiments.cell_run_ms_p50", quantile(durations(direct, millis), 0.5), len(direct))
	m.set("experiments.coord_overhead_ratio", wall*float64(e.workers)/(mean*float64(cells)), len(direct))
	m.set("trace.overhead_ratio", seconds(traced.use.wall)/wall, 1)

	if err := b.onDisk.report(m, e, wall, cells); err != nil {
		return nil, err
	}
	runtimeCounts(m, plain.use, plain.events)
	return m, nil
}
