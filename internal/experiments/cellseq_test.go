package experiments

import (
	"fmt"
	"math/rand"
	"testing"
)

// GridCells slurps cfg's grid into a slice in canonical order with the
// nested loops sweeps enumerated cells with before they streamed them,
// kept verbatim: the reference CellAt's index arithmetic is checked
// against.
func GridCells(cfg SweepConfig) []GridCell {
	cfg = cfg.withDefaults()
	var cells []GridCell
	for _, seed := range cfg.Seeds {
		for _, share := range cfg.Shares {
			for _, name := range cfg.Algorithms {
				cells = append(cells, GridCell{
					Index:     len(cells),
					Algorithm: name,
					Share:     share,
					Seed:      seed,
					Jobs:      cfg.Jobs,
					Nodes:     cfg.Nodes,
				})
			}
		}
	}
	return cells
}

// randomSweepConfig builds an arbitrary SweepConfig, including degenerate
// shapes: empty axes (which withDefaults fills), single-cell grids, and
// duplicate axis values.
func randomSweepConfig(rng *rand.Rand) SweepConfig {
	algos := []string{"fcfs", "easy", "adaptive", "packed", "packed+easy"}
	var cfg SweepConfig
	if rng.Intn(4) > 0 { // 1 in 4 keeps the empty default
		n := 1 + rng.Intn(4)
		for i := 0; i < n; i++ {
			cfg.Algorithms = append(cfg.Algorithms, algos[rng.Intn(len(algos))])
		}
	}
	if rng.Intn(4) > 0 {
		n := 1 + rng.Intn(5)
		for i := 0; i < n; i++ {
			cfg.Shares = append(cfg.Shares, float64(rng.Intn(11))/10)
		}
	}
	if rng.Intn(4) > 0 {
		n := 1 + rng.Intn(6)
		for i := 0; i < n; i++ {
			cfg.Seeds = append(cfg.Seeds, rng.Uint64()%1000)
		}
	}
	if rng.Intn(2) == 0 {
		cfg.Jobs = 1 + rng.Intn(500)
	}
	if rng.Intn(2) == 0 {
		cfg.Nodes = 1 + rng.Intn(256)
	}
	return cfg
}

// TestCellSeqMatchesGridCells is the streamed-enumeration contract: for
// arbitrary configs, the cell sequence CellAt(cfg, 0..GridSize(cfg)-1)
// equals the slurped GridCells slice exactly — same cells, same canonical
// order, same indices.
func TestCellSeqMatchesGridCells(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		cfg := randomSweepConfig(rng)
		name := fmt.Sprintf("trial %d cfg %+v", trial, cfg)

		slurped := GridCells(cfg)
		if got := GridSize(cfg); got != len(slurped) {
			t.Fatalf("%s: GridSize = %d, len(GridCells) = %d", name, got, len(slurped))
		}
		for i, want := range slurped {
			if at := CellAt(cfg, i); at != want {
				t.Fatalf("%s: CellAt(%d) = %+v, want %+v", name, i, at, want)
			}
			if want.Index != i {
				t.Fatalf("%s: cell %d carries Index %d", name, i, want.Index)
			}
		}
	}
}

// TestCellSeqSingleCell pins the smallest possible grid end to end.
func TestCellSeqSingleCell(t *testing.T) {
	cfg := SweepConfig{Algorithms: []string{"fcfs"}, Shares: []float64{0.5}, Seeds: []uint64{7}, Jobs: 3, Nodes: 8}
	if n := GridSize(cfg); n != 1 {
		t.Fatalf("GridSize = %d, want 1", n)
	}
	want := GridCell{Index: 0, Algorithm: "fcfs", Share: 0.5, Seed: 7, Jobs: 3, Nodes: 8}
	if got := CellAt(cfg, 0); got != want {
		t.Fatalf("CellAt = %+v, want %+v", got, want)
	}
}
