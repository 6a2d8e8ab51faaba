package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"

	"repro/elastisim"
	"repro/internal/job"
)

// SweepPoint is one cell of a parameter-grid study.
type SweepPoint struct {
	Algorithm      string
	MalleableShare float64
	Seed           uint64
	Jobs           int
	Summary        elastisim.Summary
	Events         uint64
	WallMillis     int64
	// Snapshot is the cell's self-profiling telemetry (kernel, solver,
	// scheduler counters). Everything except the wall/heap fields is
	// deterministic across worker counts.
	Snapshot elastisim.TelemetrySnapshot
}

// AggregateSnapshots sums the per-cell telemetry snapshots in grid order.
// Because cells land in a slice indexed by cell, the aggregate (after
// StripWall) is bit-identical for any worker count.
func AggregateSnapshots(pts []SweepPoint) elastisim.TelemetrySnapshot {
	var agg elastisim.TelemetrySnapshot
	for _, p := range pts {
		agg.Add(p.Snapshot)
	}
	return agg
}

// SweepConfig spans the grid. Zero-valued fields get defaults matching the
// standard experiment machine.
type SweepConfig struct {
	// Algorithms by registry name (default: fcfs, easy, adaptive).
	Algorithms []string
	// Shares of malleable jobs (default: 0, 0.5, 1).
	Shares []float64
	// Seeds for workload generation (default: 1).
	Seeds []uint64
	// Jobs per run (default 100).
	Jobs int
	// Nodes is the machine size (default 128).
	Nodes int
	// Workers caps how many grid cells run concurrently: 0 means one per
	// CPU, 1 forces sequential execution. Cells are independent
	// simulations, so every simulated value is bit-identical across
	// worker counts; only wall-clock measurements vary.
	Workers int
	// OnCellDone, when set, is called once per finished grid cell, possibly
	// from concurrent worker goroutines (progress reporting hook).
	OnCellDone func()
}

func (c *SweepConfig) withDefaults() SweepConfig {
	out := *c
	if len(out.Algorithms) == 0 {
		out.Algorithms = []string{"fcfs", "easy", "adaptive"}
	}
	if len(out.Shares) == 0 {
		out.Shares = []float64{0, 0.5, 1}
	}
	if len(out.Seeds) == 0 {
		out.Seeds = []uint64{1}
	}
	if out.Jobs <= 0 {
		out.Jobs = 100
	}
	if out.Nodes <= 0 {
		out.Nodes = stdNodes
	}
	return out
}

// GridCell is one addressable cell of a sweep grid: the full parameter
// set needed to run it anywhere — in-process, after a resume, or on a
// remote worker that never saw the SweepConfig. Index is the cell's
// position in canonical grid order, which is what keeps merged output
// deterministic regardless of completion order. GridCell is comparable
// and JSON-round-trippable, so it doubles as the distwork payload of
// journaled and distributed sweeps.
type GridCell struct {
	Index     int     `json:"index"`
	Algorithm string  `json:"algorithm"`
	Share     float64 `json:"share"`
	Seed      uint64  `json:"seed"`
	Jobs      int     `json:"jobs"`
	Nodes     int     `json:"nodes"`
}

// GridSize returns the number of cells in cfg's grid without
// materializing any of them.
func GridSize(cfg SweepConfig) int {
	cfg = cfg.withDefaults()
	return len(cfg.Seeds) * len(cfg.Shares) * len(cfg.Algorithms)
}

// CellAt returns cell i of cfg's grid — canonical order: seed-major, then
// share, then algorithm, the row order of the emitted CSV — by O(1) index
// arithmetic, which is what lets million-cell grids be enumerated,
// resumed, and journaled without ever holding the cell slice on the heap.
// i must be in [0, GridSize(cfg)).
func CellAt(cfg SweepConfig, i int) GridCell {
	return cellAt(cfg.withDefaults(), i)
}

// cellAt is CellAt for a cfg whose defaults are already applied.
func cellAt(cfg SweepConfig, i int) GridCell {
	na, ns := len(cfg.Algorithms), len(cfg.Shares)
	return GridCell{
		Index:     i,
		Algorithm: cfg.Algorithms[i%na],
		Share:     cfg.Shares[(i/na)%ns],
		Seed:      cfg.Seeds[i/(na*ns)],
		Jobs:      cfg.Jobs,
		Nodes:     cfg.Nodes,
	}
}

// RunCell executes one grid cell: generate the cell's workload, simulate
// it, and summarize. Cells are self-contained — every simulated value is
// a pure function of the GridCell — which is what makes sweep output
// bit-identical across worker counts, process restarts, and machines.
func RunCell(ctx context.Context, c GridCell) (SweepPoint, error) {
	algo, err := elastisim.NewAlgorithm(c.Algorithm)
	if err != nil {
		return SweepPoint{}, err
	}
	shares := map[job.Type]float64{}
	if c.Share < 1 {
		shares[job.Rigid] = 1 - c.Share
	}
	if c.Share > 0 {
		shares[job.Malleable] = c.Share
	}
	wl, err := elastisim.GenerateWorkload(elastisim.WorkloadConfig{
		Name: "sweep", Seed: c.Seed, Count: c.Jobs,
		Arrival:      job.Arrival{Kind: job.ArrivalPoisson, Rate: float64(c.Nodes) / 2304.0},
		Nodes:        [2]int{2, min(64, c.Nodes)},
		MachineNodes: c.Nodes,
		NodeSpeed:    stdNodeSpeed,
		TypeShares:   shares,
	})
	if err != nil {
		return SweepPoint{}, err
	}
	s, err := elastisim.NewSession(elastisim.Config{
		Platform:  StandardPlatform(c.Nodes),
		Workload:  wl,
		Algorithm: algo,
	})
	if err != nil {
		return SweepPoint{}, fmt.Errorf("sweep cell (%s, %.2f, %d): %w", c.Algorithm, c.Share, c.Seed, err)
	}
	res, err := s.Run(ctx)
	if err != nil {
		return SweepPoint{}, fmt.Errorf("sweep cell (%s, %.2f, %d): %w", c.Algorithm, c.Share, c.Seed, err)
	}
	return SweepPoint{
		Algorithm:      c.Algorithm,
		MalleableShare: c.Share,
		Seed:           c.Seed,
		Jobs:           c.Jobs,
		Summary:        res.Summary,
		Events:         res.Events,
		WallMillis:     res.WallClock.Milliseconds(),
		Snapshot:       res.Telemetry,
	}, nil
}

// Sweep runs the full grid: every algorithm on every (share, seed)
// workload. Cells are independent simulations fanned across the worker
// pool (cfg.Workers); the returned points are in grid order and
// bit-identical to a sequential run.
func Sweep(cfg SweepConfig) ([]SweepPoint, error) {
	pts, _, err := SweepContext(context.Background(), cfg)
	if err != nil {
		return nil, err
	}
	return pts, nil
}

// SweepContext is Sweep with cooperative cancellation. Once ctx is done,
// no further cell starts and in-flight simulations stop between slices
// (each cell runs through an elastisim.Session driven by ctx). It returns
// every point computed so far — cells that completed are valid in grid
// order, the done bitmap says which — plus ctx.Err() when the sweep was
// cut short, so callers can flush partial grids on interrupt.
func SweepContext(ctx context.Context, cfg SweepConfig) ([]SweepPoint, []bool, error) {
	cfg = cfg.withDefaults()
	size := len(cfg.Seeds) * len(cfg.Shares) * len(cfg.Algorithms)
	return runIndexedCtx(ctx, cfg.Workers, size, func(ctx context.Context, i int) (SweepPoint, error) {
		p, err := RunCell(ctx, cellAt(cfg, i))
		if err == nil && cfg.OnCellDone != nil {
			cfg.OnCellDone()
		}
		return p, err
	})
}

// EncodeCellResult canonicalizes a cell's result for the sweep journal
// (and the distributed finish call): wall-clock and memory measurements
// are zeroed — WallMillis and the snapshot's wall/heap fields are the
// only machine-dependent values in a SweepPoint — so the encoding, and
// therefore every resumed or distributed sweep's CSV, is a pure function
// of the grid cell. json.Marshal is deterministic (fixed field order,
// sorted map keys), which makes "byte-identical to an uninterrupted
// sequential run" an invariant rather than an aspiration.
func EncodeCellResult(p SweepPoint) (string, error) {
	p.WallMillis = 0
	p.Snapshot = p.Snapshot.StripWall()
	data, err := json.Marshal(p)
	if err != nil {
		return "", err
	}
	return string(data), nil
}

// DecodeCellResult parses a result produced by EncodeCellResult.
func DecodeCellResult(s string) (SweepPoint, error) {
	var p SweepPoint
	if err := json.Unmarshal([]byte(s), &p); err != nil {
		return SweepPoint{}, fmt.Errorf("decoding cell result: %w", err)
	}
	return p, nil
}

// WriteSweepCSV emits the grid as CSV for external analysis.
func WriteSweepCSV(w io.Writer, pts []SweepPoint) error {
	if err := writeSweepCSVHeader(w); err != nil {
		return err
	}
	for _, p := range pts {
		if err := writeSweepCSVRow(w, p); err != nil {
			return err
		}
	}
	return nil
}

func writeSweepCSVHeader(w io.Writer) error {
	_, err := fmt.Fprintln(w, "algorithm,malleable_share,seed,jobs,makespan,utilization,mean_wait,p95_wait,mean_turnaround,mean_slowdown,reconfigs,completed,killed,sim_events,wall_ms")
	return err
}

func writeSweepCSVRow(w io.Writer, p SweepPoint) error {
	s := p.Summary
	_, err := fmt.Fprintf(w, "%s,%g,%d,%d,%g,%g,%g,%g,%g,%g,%d,%d,%d,%d,%d\n",
		p.Algorithm, p.MalleableShare, p.Seed, p.Jobs,
		s.Makespan, s.Utilization, s.MeanWait, s.P95Wait, s.MeanTurnaround,
		s.MeanSlowdown, s.Reconfigs, s.Completed, s.Killed, p.Events, p.WallMillis)
	return err
}
