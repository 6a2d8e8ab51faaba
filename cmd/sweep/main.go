// Command sweep runs a parameter-grid study (algorithms × malleable
// shares × seeds) and emits one CSV row per cell, ready for external
// plotting.
//
// Usage:
//
//	sweep -algorithms fcfs,easy,adaptive -shares 0,0.25,0.5,0.75,1 \
//	      -seeds 1,2,3 -jobs 150 -workers 0 > grid.csv
//
// Cells run concurrently (-workers; 0 means one per CPU). The CSV is
// bit-identical for any worker count — only wall-clock columns vary.
//
// Ctrl-C stops the sweep gracefully: in-flight simulations stop between
// events, the CSV rows of every completed cell are flushed to stdout, and
// the process exits with code 130.
//
// # Journaled and resumable sweeps
//
// With -journal the grid runs through the distwork core: every cell is a
// journaled task, and a killed sweep restarted with -resume re-runs only
// the cells that had not finished — completed cells replay from the
// journal. Journaled results are canonicalized (wall_ms is 0), so the
// resumed CSV is byte-identical to an uninterrupted run.
//
//	sweep -journal grid.jsonl > grid.csv            # start
//	sweep -journal grid.jsonl -resume > grid.csv    # continue after a kill
//
// # Distributed sweeps
//
// A coordinator leases cells over HTTP to workers running the loop the
// local pool runs (distwork.Work: claim, heartbeat, settle). A worker
// that dies mid-cell stops heartbeating, its lease expires, and the cell
// is stolen by a survivor; Ctrl-C releases a worker's cells at once.
//
//	sweep -serve 127.0.0.1:9180 -journal grid.jsonl > grid.csv
//	sweep -connect http://127.0.0.1:9180 -worker-name w1 &
//	sweep -connect http://127.0.0.1:9180 -worker-name w2 &
//
// The coordinator also serves GET /metrics (sweep_task_claims_total,
// sweep_task_steals_total, sweep_lease_expirations_total, ...).
//
// # Million-cell grids
//
// The grid is enumerated lazily from a deterministic cursor and, when
// journaled, settled cells are evicted from memory (the journal holds
// the results, the store 16 bytes of index a cell; the final CSV
// streams them back out), so coordinator memory is O(active cells), not
// O(grid). If a journal write fails, the cells it missed stay in memory
// and reach the CSV, and sweep exits non-zero with the journal's error.
// Two flags tune the path:
// -group-commit d batches fsyncs into one flush per window (appends are
// still written through, so a process kill loses nothing), and workers
// pass -lease-batch N to claim/heartbeat/finish N cells per HTTP
// round-trip with per-item settlement. The journal is one file; -resume
// refuses a journal written for a different grid, and one written across
// several files by an older build.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/elastisim"
	"repro/internal/cli"
	"repro/internal/distwork"
	"repro/internal/experiments"
	"repro/internal/httpapi"
	"repro/internal/obs"
	"repro/internal/telemetry"
)

func main() { cli.Main("sweep", run) }

func run(ctx context.Context) error {
	var (
		algorithms   = flag.String("algorithms", "fcfs,easy,adaptive", "comma-separated algorithm names")
		shares       = flag.String("shares", "0,0.5,1", "comma-separated malleable shares in [0,1]")
		seeds        = flag.String("seeds", "1", "comma-separated workload seeds")
		jobs         = flag.Int("jobs", 100, "jobs per run")
		nodes        = flag.Int("nodes", 128, "machine size")
		workers      = flag.Int("workers", 0, "concurrent grid cells (0 = one per CPU, 1 = sequential)")
		progress     = flag.Bool("progress", false, "print per-cell progress to stderr")
		telemetryOut = flag.String("telemetry-out", "", "write the aggregated self-profiling snapshot JSON to this path")
		cpuProfile   = flag.String("cpuprofile", "", "write a pprof CPU profile to this path")
		journalPath  = flag.String("journal", "", "journal grid cells to this JSONL file (resumable)")
		resume       = flag.Bool("resume", false, "continue an existing -journal instead of refusing to overwrite it")
		groupCommit  = flag.Duration("group-commit", 0, "batch journal fsyncs into one flush per window (0 = fsync every transition)")
		serveAddr    = flag.String("serve", "", "coordinator mode: lease cells to HTTP workers on this address")
		connectURL   = flag.String("connect", "", "worker mode: claim cells from this coordinator URL")
		workerName   = flag.String("worker-name", "", "worker name in -connect mode (default worker-<pid>)")
		lease        = flag.Duration("lease", time.Minute, "claim lease for journaled/distributed cells")
		leaseBatch   = flag.Int("lease-batch", 1, "cells to claim per coordinator round trip in -connect mode")
	)
	flag.Parse()

	if *serveAddr != "" && *connectURL != "" {
		return cli.Usagef("-serve and -connect are mutually exclusive")
	}
	// Refused, not dropped: -serve -group-commit 5ms alone would only look durable.
	if *journalPath == "" && (*resume || *groupCommit != 0) {
		return cli.Usagef("-resume and -group-commit require -journal")
	}
	if *connectURL == "" && (*leaseBatch != 1 || *workerName != "") {
		return cli.Usagef("-lease-batch and -worker-name require -connect")
	}
	if *leaseBatch > httpapi.MaxClaimBatch {
		return cli.Usagef("-lease-batch %d exceeds the coordinator's claim cap %d", *leaseBatch, httpapi.MaxClaimBatch)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}

	if *connectURL != "" {
		return runWorker(ctx, *connectURL, *workerName, *leaseBatch)
	}

	cfg := experiments.SweepConfig{Jobs: *jobs, Nodes: *nodes, Workers: *workers}
	for _, s := range strings.Split(*algorithms, ",") {
		name := strings.TrimSpace(s)
		if _, err := elastisim.NewAlgorithm(name); err != nil {
			return cli.Usagef("%v", err)
		}
		cfg.Algorithms = append(cfg.Algorithms, name)
	}
	for _, s := range strings.Split(*shares, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil || v < 0 || v > 1 {
			return cli.Usagef("bad share %q", s)
		}
		cfg.Shares = append(cfg.Shares, v)
	}
	for _, s := range strings.Split(*seeds, ",") {
		v, err := strconv.ParseUint(strings.TrimSpace(s), 10, 64)
		if err != nil {
			return cli.Usagef("bad seed %q", s)
		}
		cfg.Seeds = append(cfg.Seeds, v)
	}

	var prog *telemetry.CellProgress
	if *progress {
		cells := len(cfg.Algorithms) * len(cfg.Shares) * len(cfg.Seeds)
		prog = &telemetry.CellProgress{W: os.Stderr, Total: cells}
	}

	if *serveAddr != "" || *journalPath != "" {
		gopts := experiments.GridOptions{
			Workers:     cfg.Workers,
			Lease:       *lease,
			Resume:      *resume,
			GroupCommit: *groupCommit,
			OnCellDone:  progHook(prog),
		}
		var (
			grid   *experiments.Grid
			runErr error
		)
		// grid, non-nil once the journal opened, is what the CSV streams from.
		if *serveAddr != "" {
			grid, runErr = runCoordinator(ctx, *serveAddr, *journalPath, cfg, gopts)
		} else if grid, runErr = experiments.OpenGrid(*journalPath, cfg, gopts); runErr == nil {
			runErr = grid.Run(ctx)
		}
		if prog != nil {
			prog.Done()
		}
		if grid == nil {
			return runErr
		}
		err := emitGrid(ctx, grid, runErr, *telemetryOut)
		// A journal write that failed mid-run latches and surfaces here: the
		// CSV may be whole, but the journal no longer backs it.
		if cerr := grid.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("journal: %w", cerr)
		}
		return err
	}

	if prog != nil {
		cfg.OnCellDone = prog.CellDone
	}
	pts, done, err := experiments.SweepContext(ctx, cfg)
	if prog != nil {
		prog.Done()
	}
	if err != nil && ctx.Err() == nil {
		return err
	}
	// Keep the rows of completed cells in cell-index order — on interrupt
	// that's the partial grid worth flushing; on a clean run it's
	// everything.
	completed := experiments.FilterCompleted(pts, done)
	if werr := experiments.WriteSweepCSV(os.Stdout, completed); werr != nil {
		return werr
	}
	if *telemetryOut != "" {
		if ferr := writeSnapshot(*telemetryOut, experiments.AggregateSnapshots(completed)); ferr != nil {
			return ferr
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "sweep: cancelled after %d/%d cells; flushed the completed rows\n", len(completed), len(pts))
		return err
	}
	fmt.Fprintf(os.Stderr, "sweep: %d cells\n", len(completed))
	return nil
}

// emitGrid streams a journaled grid's completed rows to stdout in
// cell-index order — on interrupt that's the partial grid worth flushing;
// on a clean run it's everything. Results never pass through a
// grid-sized slice.
func emitGrid(ctx context.Context, grid *experiments.Grid, runErr error, telemetryOut string) error {
	if runErr != nil && ctx.Err() == nil {
		return runErr
	}
	var agg *elastisim.TelemetrySnapshot
	if telemetryOut != "" {
		agg = &elastisim.TelemetrySnapshot{}
	}
	rows, err := grid.EmitCSV(os.Stdout, agg)
	if err != nil {
		return err
	}
	if agg != nil {
		if err := writeSnapshot(telemetryOut, *agg); err != nil {
			return err
		}
	}
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "sweep: cancelled after %d/%d cells; flushed the completed rows\n", rows, grid.Size())
		return runErr
	}
	fmt.Fprintf(os.Stderr, "sweep: %d cells\n", rows)
	return nil
}

func writeSnapshot(path string, agg elastisim.TelemetrySnapshot) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := agg.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runCoordinator serves the grid's cells to HTTP workers and blocks
// until every cell is terminal. The coordinator runs no cells itself —
// it journals claims and results, expires lapsed leases so dead
// workers' cells get stolen, and exposes sweep_* metrics.
func runCoordinator(ctx context.Context, addr, path string, cfg experiments.SweepConfig, gopts experiments.GridOptions) (*experiments.Grid, error) {
	reg := obs.NewRegistry()
	gopts.Metrics = reg
	grid, err := experiments.OpenGrid(path, cfg, gopts)
	if err != nil {
		return nil, err
	}
	store := grid.Store()
	lease := store.Lease()

	mux := http.NewServeMux()
	api := &httpapi.LeaseAPI[experiments.GridCell]{Store: store}
	api.Register(mux)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w)
	})

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		grid.Close()
		return nil, err
	}
	// A client that never finishes its request headers, or leaves a
	// keep-alive connection idle between requests, is dropped rather than
	// holding a connection forever.
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second, IdleTimeout: 2 * time.Minute}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "sweep: coordinator listening on %s (%d cells)\n", ln.Addr(), grid.Size())

	// Expired leases requeue on a timer so a dead worker's cells return
	// to pending even when no claim traffic is arriving.
	expire := time.NewTicker(lease / 2)
	defer expire.Stop()
	settled := make(chan error, 1)
	go func() { settled <- store.WaitSettled(ctx) }()
	var waitErr error
loop:
	for {
		select {
		case <-expire.C:
			store.ExpireLeases()
		case waitErr = <-settled:
			break loop
		case err := <-serveErr:
			return grid, fmt.Errorf("coordinator: %w", err)
		}
	}

	// Let surviving workers observe settled=true on their next claim poll
	// before the listener goes away — otherwise their final claim races
	// the shutdown and they report a lost coordinator.
	if waitErr == nil {
		sleepCtx(ctx, time.Second)
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	_ = srv.Shutdown(shutCtx)

	fmt.Fprintf(os.Stderr, "sweep: coordinator settled: cells=%d claims=%d steals=%d lease_expirations=%d\n",
		grid.Size(),
		reg.Counter("sweep_task_claims_total").Value(),
		reg.Counter("sweep_task_steals_total").Value(),
		reg.Counter("sweep_lease_expirations_total").Value())
	if waitErr != nil {
		if ctx.Err() != nil {
			return grid, ctx.Err()
		}
		return grid, waitErr
	}
	return grid, grid.Err()
}

// runWorker is distwork.Work — the loop the local pool's workers run —
// over the coordinator's lease API, batch cells per round trip (raise it
// for grids whose cells are much shorter than a network round trip).
func runWorker(ctx context.Context, base, name string, batch int) error {
	if name == "" {
		name = fmt.Sprintf("worker-%d", os.Getpid())
	}
	client := &httpapi.LeaseClient[experiments.GridCell]{Base: strings.TrimRight(base, "/")}
	// A worker may start before its coordinator: probe ~10s for it with an
	// empty heartbeat. An HTTP status means it is up and is not retried.
	var st *httpapi.LeaseStatusError
	for tries := 20; ; tries-- {
		_, err := client.HeartbeatBatch(ctx, name, nil)
		if err == nil {
			break
		} else if errors.As(err, &st) || tries <= 1 || !sleepCtx(ctx, 500*time.Millisecond) {
			return fmt.Errorf("worker %s: cannot reach coordinator %s: %w", name, base, err)
		}
	}
	cells, err := distwork.Work(ctx, client, name, batch, experiments.RunCellTask)
	switch {
	case err == nil:
		fmt.Fprintf(os.Stderr, "sweep: worker %s done: %d cells\n", name, cells)
	case ctx.Err() != nil:
		err = ctx.Err()
	default:
		err = fmt.Errorf("worker %s: lost coordinator after %d cells: %w", name, cells, err)
	}
	return err
}

func sleepCtx(ctx context.Context, d time.Duration) bool {
	select {
	case <-ctx.Done():
		return false
	case <-time.After(d):
		return true
	}
}

func progHook(prog *telemetry.CellProgress) func() {
	if prog == nil {
		return nil
	}
	return prog.CellDone
}
