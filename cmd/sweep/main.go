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
// A coordinator leases cells to remote workers over HTTP; workers claim,
// heartbeat, and return cell results. A worker that dies mid-cell stops
// heartbeating, its lease expires, and the cell is stolen by a survivor.
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
// the results; the final CSV streams them back out), so coordinator
// memory is O(active cells), not O(grid). Three flags tune the path:
// -shards N hash-shards the journal across N files, -group-commit d
// batches fsyncs into one flush per window (appends are still written
// through, so a process kill loses nothing), and workers pass
// -lease-batch N to claim/heartbeat/finish N cells per HTTP round-trip
// with per-item settlement. -resume re-shards a journal to the requested
// count and refuses a journal written for a different grid.
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
		shards       = flag.Int("shards", 0, "hash-shard the journal across this many files (0 = one file)")
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
	if *resume && *journalPath == "" {
		return cli.Usagef("-resume requires -journal")
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
	cfg.Algorithms = strings.Split(*algorithms, ",")
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
			Shards:      *shards,
			GroupCommit: *groupCommit,
			OnCellDone:  progHook(prog),
		}
		var (
			grid   *experiments.Grid
			runErr error
		)
		if *serveAddr != "" {
			grid, runErr = runCoordinator(ctx, *serveAddr, *journalPath, cfg, gopts)
		} else {
			grid, runErr = runJournaled(ctx, *journalPath, cfg, gopts)
		}
		if prog != nil {
			prog.Done()
		}
		if grid == nil {
			return runErr
		}
		defer grid.Close()
		if runErr != nil && ctx.Err() == nil {
			return runErr
		}
		// Stream the completed rows out of the journal in cell-index order —
		// on interrupt that's the partial grid worth flushing; on a clean run
		// it's everything. Results never pass through a grid-sized slice.
		var agg *elastisim.TelemetrySnapshot
		if *telemetryOut != "" {
			agg = &elastisim.TelemetrySnapshot{}
		}
		rows, werr := grid.EmitCSV(os.Stdout, agg)
		if werr != nil {
			return werr
		}
		if agg != nil {
			if ferr := writeSnapshot(*telemetryOut, *agg); ferr != nil {
				return ferr
			}
		}
		if runErr != nil {
			fmt.Fprintf(os.Stderr, "sweep: cancelled after %d/%d cells; flushed the completed rows\n", rows, grid.Size())
			return runErr
		}
		fmt.Fprintf(os.Stderr, "sweep: %d cells\n", rows)
		return nil
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

// runJournaled runs the grid locally through the distwork journal:
// killed runs restart with -resume from the first unfinished cell. The
// returned grid (non-nil whenever the journal opened) is what the
// caller streams the CSV from.
func runJournaled(ctx context.Context, path string, cfg experiments.SweepConfig, gopts experiments.GridOptions) (*experiments.Grid, error) {
	grid, err := experiments.OpenGrid(path, cfg, gopts)
	if err != nil {
		return nil, err
	}
	return grid, grid.Run(ctx)
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
	srv := &http.Server{Handler: mux}
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

// runWorker claims cells from a coordinator, executes them locally, and
// returns results, heartbeating at a third of the coordinator's lease.
// It exits when the coordinator reports the grid settled, keeps polling
// through empty claims, and tolerates an unreachable coordinator only
// before first contact (it retries ~10s, then gives up). It leases batch
// cells per round trip and settles them with one finish-batch request —
// raise batch for grids whose cells are much shorter than a network
// round trip.
func runWorker(ctx context.Context, base, name string, batch int) error {
	if name == "" {
		name = fmt.Sprintf("worker-%d", os.Getpid())
	}
	if batch < 1 {
		batch = 1
	}
	client := &httpapi.LeaseClient[experiments.GridCell]{Base: strings.TrimRight(base, "/")}
	contacted := false
	contactTries := 20 // 20 × 500ms ≈ 10s of pre-contact patience
	var cells int
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		tasks, settled, lease, err := client.ClaimBatch(ctx, name, batch)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if contacted {
				return fmt.Errorf("worker %s: lost coordinator after %d cells: %w", name, cells, err)
			}
			var st *httpapi.LeaseStatusError
			if errors.As(err, &st) {
				return fmt.Errorf("worker %s: %w", name, err)
			}
			// Not up yet: retry for a while before giving up.
			contactTries--
			if contactTries <= 0 || !sleepCtx(ctx, 500*time.Millisecond) {
				return fmt.Errorf("worker %s: cannot reach coordinator %s: %w", name, base, err)
			}
			continue
		}
		contacted = true
		if len(tasks) == 0 {
			if settled {
				fmt.Fprintf(os.Stderr, "sweep: worker %s done: %d cells\n", name, cells)
				return nil
			}
			if !sleepCtx(ctx, 250*time.Millisecond) {
				return ctx.Err()
			}
			continue
		}
		n, err := runClaimedBatch(ctx, client, name, tasks, lease)
		cells += n
		if err != nil {
			return err
		}
	}
}

// runClaimedBatch executes a batch of leased cells sequentially: one
// background ticker heartbeats every still-claimed cell in a single
// request, results accumulate locally, and one finish-batch call
// settles everything at the end. A stolen cell's 409 is tolerated per
// item (the newer claim's result wins); an interrupt releases the cells
// that never ran after delivering the results already computed.
func runClaimedBatch(ctx context.Context, client *httpapi.LeaseClient[experiments.GridCell], name string, tasks []distwork.Task[experiments.GridCell], lease time.Duration) (int, error) {
	ids := make([]string, len(tasks))
	for i, t := range tasks {
		ids[i] = t.ID
	}
	hbCtx, stopHB := context.WithCancel(context.Background())
	defer stopHB()
	go func() {
		tick := time.NewTicker(lease / 3)
		defer tick.Stop()
		for {
			select {
			case <-hbCtx.Done():
				return
			case <-tick.C:
				// Per-item errors are expected (finished or stolen cells);
				// only a dead coordinator stops the ticker.
				if _, err := client.HeartbeatBatch(hbCtx, name, ids); err != nil {
					return
				}
			}
		}
	}()
	var items []distwork.FinishItem
	ran := 0
	for ; ran < len(tasks); ran++ {
		if ctx.Err() != nil {
			break
		}
		task := tasks[ran]
		pt, err := experiments.RunCell(ctx, task.Payload)
		if err != nil {
			if ctx.Err() != nil && errors.Is(err, ctx.Err()) {
				break
			}
			items = append(items, distwork.FinishItem{ID: task.ID, Error: err.Error()})
			continue
		}
		enc, err := experiments.EncodeCellResult(pt)
		if err != nil {
			stopHB()
			return 0, err
		}
		items = append(items, distwork.FinishItem{ID: task.ID, Result: enc})
	}
	stopHB()
	// Settle with a fresh context: computed results are worth delivering
	// even when the interrupt arrived mid-batch.
	finCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	done := 0
	if len(items) > 0 {
		errs, err := client.FinishBatch(finCtx, name, items)
		if err != nil {
			return 0, err
		}
		for i, ierr := range errs {
			if ierr == nil {
				done++
				continue
			}
			var st *httpapi.LeaseStatusError
			if errors.As(ierr, &st) && st.Status == http.StatusConflict {
				continue // stolen mid-run; the newer claim wins
			}
			return done, fmt.Errorf("finishing cell %s: %w", items[i].ID, ierr)
		}
	}
	if ctx.Err() != nil {
		// Release the cells that never ran so another worker picks them up
		// immediately instead of waiting out the lease.
		for _, task := range tasks[ran:] {
			_ = client.Release(finCtx, task.ID, name, fmt.Sprintf("worker %s interrupted; requeued", name))
		}
		return done, ctx.Err()
	}
	return done, nil
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
