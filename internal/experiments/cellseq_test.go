package experiments

import (
	"fmt"
	"math/rand"
	"testing"
)

// GridCells slurps cfg's grid into a slice in canonical order, the way
// sweeps enumerated cells before they streamed them: the reference the
// cursor is checked against.
func GridCells(cfg SweepConfig) []GridCell {
	seq := NewCellSeq(cfg)
	cells := make([]GridCell, 0, seq.Size())
	for c, ok := seq.Next(); ok; c, ok = seq.Next() {
		cells = append(cells, c)
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
// arbitrary configs, the cursor (Next and At), CellAt, and GridSize agree
// exactly — same cells, same canonical order, same indices — with the
// slurped GridCells slice.
func TestCellSeqMatchesGridCells(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		cfg := randomSweepConfig(rng)
		name := fmt.Sprintf("trial %d cfg %+v", trial, cfg)

		slurped := GridCells(cfg)
		if got := GridSize(cfg); got != len(slurped) {
			t.Fatalf("%s: GridSize = %d, len(GridCells) = %d", name, got, len(slurped))
		}
		seq := NewCellSeq(cfg)
		if seq.Size() != len(slurped) {
			t.Fatalf("%s: CellSeq.Size = %d, len(GridCells) = %d", name, seq.Size(), len(slurped))
		}
		for i, want := range slurped {
			got, ok := seq.Next()
			if !ok {
				t.Fatalf("%s: cursor exhausted at %d of %d", name, i, len(slurped))
			}
			if got != want {
				t.Fatalf("%s: cursor cell %d = %+v, want %+v", name, i, got, want)
			}
			if at := CellAt(cfg, i); at != want {
				t.Fatalf("%s: CellAt(%d) = %+v, want %+v", name, i, at, want)
			}
			if at := seq.At(i); at != want {
				t.Fatalf("%s: seq.At(%d) = %+v, want %+v", name, i, at, want)
			}
			if want.Index != i {
				t.Fatalf("%s: cell %d carries Index %d", name, i, want.Index)
			}
		}
		if c, ok := seq.Next(); ok {
			t.Fatalf("%s: cursor yielded %+v past the end", name, c)
		}
		if c, ok := seq.Next(); ok { // stays exhausted
			t.Fatalf("%s: exhausted cursor revived with %+v", name, c)
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
	seq := NewCellSeq(cfg)
	c, ok := seq.Next()
	if !ok || c != want {
		t.Fatalf("Next = %+v, %v; want %+v, true", c, ok, want)
	}
	if _, ok := seq.Next(); ok {
		t.Fatal("single-cell cursor not exhausted after one cell")
	}
}
