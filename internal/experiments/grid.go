package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"repro/elastisim"
	"repro/internal/distwork"
	"repro/internal/obs"
)

// The journaled grid runner puts a sweep's cells through the same
// work-distribution core as elastisimd's job queue: every cell is a
// distwork task, every completion is journaled with its canonical
// encoded result, and a killed sweep reopened with Resume picks up at
// the first incomplete cell — completed cells replay from the journal
// and never re-run. The same store serves the distributed mode: a
// coordinator leases cells to HTTP workers (internal/httpapi.LeaseAPI)
// instead of a local pool, with lease expiry returning a dead worker's
// cells to the pool for the survivors to steal.
//
// The grid never materializes its cells: the store is fed from the
// CellAt cursor one claim at a time, and journaled grids run in the
// store's evicting mode — a settled cell's result lives only in the
// journal, indexed by the store. Coordinator memory is O(active leases)
// + O(one record location per cell), which is what makes million-cell
// grids feasible.

// GridOptions tunes a journaled grid run.
type GridOptions struct {
	// Workers sizes the local pool for Run (0 = one per CPU).
	Workers int
	// Lease is the claim lease for cells (default 1m: cells are minutes-
	// scale at most, and a dead worker's cells should requeue quickly).
	Lease time.Duration
	// Resume permits opening a journal that already has entries. Without
	// it, an existing journal is an error — refusing to silently append a
	// new sweep onto an old one.
	Resume bool
	// Deprecated: ignored; the journal is one file.
	Shards int
	// GroupCommit batches journal fsyncs into one flush per window
	// (0 = fsync every transition). See distwork.Options.GroupCommit.
	GroupCommit time.Duration
	// Metrics attaches observability (sweep_* series).
	Metrics *obs.Registry
	// OnCellDone, when set, is called once per newly finished cell,
	// possibly from concurrent worker goroutines.
	OnCellDone func()

	// runCell overrides cell execution (tests: fake slow/failing cells).
	runCell func(ctx context.Context, c GridCell) (SweepPoint, error)
}

func (o GridOptions) withDefaults() GridOptions {
	if o.Lease <= 0 {
		o.Lease = time.Minute
	}
	if o.runCell == nil {
		o.runCell = RunCell
	}
	return o
}

// Grid is a sweep grid journaled through a distwork store.
type Grid struct {
	store *distwork.Store[GridCell]
	cfg   SweepConfig // defaults applied
	size  int
	opts  GridOptions
}

// gridStoreOptions is the one place the sweep specialization of the
// distwork core is configured; cells journal under ids c000001… with
// sweep_* metric families.
func gridStoreOptions(opts GridOptions) distwork.Options[GridCell] {
	return distwork.Options[GridCell]{
		Lease:        opts.Lease,
		Metrics:      opts.Metrics,
		MetricPrefix: "sweep",
		IDPrefix:     "c",
	}
}

// gridMeta fingerprints the work set a journal was written for: the
// canonical JSON of the grid-shaping fields. Workers and hooks are
// execution detail, not identity, so a resume may change them.
func gridMeta(cfg SweepConfig) string {
	data, err := json.Marshal(struct {
		Algorithms []string  `json:"algorithms"`
		Shares     []float64 `json:"shares"`
		Seeds      []uint64  `json:"seeds"`
		Jobs       int       `json:"jobs"`
		Nodes      int       `json:"nodes"`
	}{cfg.Algorithms, cfg.Shares, cfg.Seeds, cfg.Jobs, cfg.Nodes})
	if err != nil {
		panic(err) // plain slices and ints cannot fail to marshal
	}
	return string(data)
}

// OpenGrid opens (or creates) the grid journal at path for cfg's grid;
// an empty path makes the grid memory-only (a coordinator that doesn't
// need restart durability). Cells are fed to the store lazily from the
// CellAt cursor — the grid slice is never materialized. An existing
// journal requires opts.Resume and must have been written for the same
// grid — same cells in the same order — otherwise OpenGrid refuses
// rather than merge incompatible sweeps (the store refuses a journaled
// cell sequence beyond the grid).
func OpenGrid(path string, cfg SweepConfig, opts GridOptions) (*Grid, error) {
	opts = opts.withDefaults()
	dcfg := cfg.withDefaults()
	size := len(dcfg.Seeds) * len(dcfg.Shares) * len(dcfg.Algorithms)
	g := &Grid{cfg: dcfg, size: size, opts: opts}
	sopts := gridStoreOptions(opts)
	sopts.Source = func(seq uint64) (GridCell, bool) {
		if seq == 0 || seq > uint64(size) {
			return GridCell{}, false
		}
		return cellAt(dcfg, int(seq)-1), true
	}
	if path == "" {
		g.store = distwork.New(sopts)
		return g, nil
	}
	if _, err := os.Stat(path); err == nil {
		if !opts.Resume {
			return nil, fmt.Errorf("journal %s already exists; pass resume to continue it", path)
		}
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	sopts.GroupCommit = opts.GroupCommit
	sopts.Meta = gridMeta(dcfg)
	sopts.Evict = true
	store, err := distwork.Open(path, sopts)
	if err != nil {
		if errors.Is(err, distwork.ErrMetaMismatch) {
			return nil, fmt.Errorf("journal %s: refusing to resume a different sweep (%w)", path, err)
		}
		return nil, err
	}
	g.store = store
	if err := g.validateJournal(path); err != nil {
		store.Close()
		return nil, err
	}
	return g, nil
}

// validateJournal refuses to resume a journal that does not describe
// cfg's grid. The grid fingerprint in the journal header, and sequences
// beyond the grid, were checked by distwork.Open; this catches replay
// evidence of a mismatch in a journal that carries no fingerprint: cells
// that differ.
func (g *Grid) validateJournal(path string) error {
	for _, t := range g.store.List() {
		i := t.Payload.Index
		if i < 0 || i >= g.size || t.Payload != cellAt(g.cfg, i) {
			return fmt.Errorf("journal %s cell %+v does not match the grid: refusing to resume a different sweep", path, t.Payload)
		}
	}
	return nil
}

// Store exposes the underlying distwork store — the coordinator mode
// serves it over HTTP (lease endpoints, ExpireLeases ticker,
// WaitSettled).
func (g *Grid) Store() *distwork.Store[GridCell] { return g.store }

// Size returns the number of cells in the grid.
func (g *Grid) Size() int { return g.size }

// Close closes the underlying store and journal.
func (g *Grid) Close() error { return g.store.Close() }

// RunCellTask executes one leased cell and returns its canonically
// encoded result — the run function of every sweep worker, local pool or
// -connect. A run stopped by ctx reports distwork.ErrInterrupted naming
// the cell, so the worker releases it; any other failure fails the cell.
func RunCellTask(ctx context.Context, t distwork.Task[GridCell]) (string, error) {
	return runCellTask(ctx, t.Payload, RunCell)
}

func runCellTask(ctx context.Context, c GridCell, run func(context.Context, GridCell) (SweepPoint, error)) (string, error) {
	p, err := run(ctx, c)
	if err != nil {
		if ctx.Err() != nil && errors.Is(err, ctx.Err()) {
			return "", fmt.Errorf("interrupted at cell %d (%s, %g, %d): %w",
				c.Index, c.Algorithm, c.Share, c.Seed, distwork.ErrInterrupted)
		}
		return "", err
	}
	return EncodeCellResult(p)
}

// Runner returns the distwork runner that executes one claimed cell
// in-process: mark running (the journal's second record for the cell),
// then RunCellTask. Lease renewal belongs to whoever claimed the cell.
func (g *Grid) Runner() distwork.Runner[GridCell] {
	return func(ctx context.Context, s *distwork.Store[GridCell], t distwork.Task[GridCell]) (string, error) {
		if err := s.MarkRunning(t.ID, t.Worker); err != nil {
			return "", err
		}
		enc, err := runCellTask(ctx, t.Payload, g.opts.runCell)
		if err == nil && g.opts.OnCellDone != nil {
			g.opts.OnCellDone()
		}
		return enc, err
	}
}

// Run executes the grid's remaining cells on a local pool and blocks
// until every cell is terminal or ctx is cancelled. Cells already
// finished in the journal are not re-run. It returns ctx's error when
// the run was cut short, otherwise the grid's cell error (Err) — nil
// when every cell completed.
func (g *Grid) Run(ctx context.Context) error {
	poolCtx, stopPool := context.WithCancel(ctx)
	defer stopPool()
	pool := distwork.NewPool(g.store, resolveWorkers(g.opts.Workers, g.size), g.Runner())
	pool.Start(poolCtx)
	err := g.store.WaitSettled(ctx)
	stopPool()
	pool.Wait()
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return err
	}
	return g.Err()
}

// forEachTerminal streams every terminal cell in grid order, one task at
// a time: an evicted cell's result is read back from the journal, so it
// is never on the heap.
func (g *Grid) forEachTerminal(fn func(i int, t distwork.Task[GridCell]) error) error {
	return g.store.Each(func(t distwork.Task[GridCell]) error {
		if !t.State.Terminal() {
			return nil
		}
		i := t.Payload.Index
		if i < 0 || i >= g.size {
			return fmt.Errorf("journal cell index %d out of range", i)
		}
		return fn(i, t)
	})
}

// Err returns the deterministic cell-failure error: the failed cell
// with the lowest index, regardless of completion order — the same
// contract as runIndexedCtx. Nil when no cell failed.
func (g *Grid) Err() error {
	var ferr error
	err := g.forEachTerminal(func(i int, t distwork.Task[GridCell]) error {
		if t.State == distwork.StateFailed && ferr == nil {
			ferr = fmt.Errorf("cell %d (%s, %g, %d): %s",
				i, t.Payload.Algorithm, t.Payload.Share, t.Payload.Seed, t.Error)
			return errStopIteration
		}
		return nil
	})
	if err != nil && !errors.Is(err, errStopIteration) {
		return err
	}
	return ferr
}

var errStopIteration = errors.New("stop iteration")

// EmitCSV streams the completed cells as CSV rows in grid order —
// byte-identical to WriteSweepCSV over the same points, without ever
// holding more than one decoded cell. When agg is non-nil each cell's
// telemetry snapshot is summed into it (the streaming form of
// AggregateSnapshots). Returns the number of rows written.
func (g *Grid) EmitCSV(w io.Writer, agg *elastisim.TelemetrySnapshot) (int, error) {
	if err := writeSweepCSVHeader(w); err != nil {
		return 0, err
	}
	rows := 0
	err := g.forEachTerminal(func(i int, t distwork.Task[GridCell]) error {
		if t.State != distwork.StateDone {
			return nil
		}
		p, err := DecodeCellResult(t.Result)
		if err != nil {
			return fmt.Errorf("cell %d: %w", i, err)
		}
		if err := writeSweepCSVRow(w, p); err != nil {
			return err
		}
		if agg != nil {
			agg.Add(p.Snapshot)
		}
		rows++
		return nil
	})
	return rows, err
}
