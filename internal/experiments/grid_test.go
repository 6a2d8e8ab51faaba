package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/distwork"
)

// TestFilterCompletedIndexOrder pins the partial-grid merge contract:
// completed rows come out in cell-index order, never in completion
// order, so a partial flush is a prefix-stable subset of the full grid.
func TestFilterCompletedIndexOrder(t *testing.T) {
	pts := []string{"c0", "c1", "c2", "c3", "c4"}
	// Completion arrived out of order (4 finished first, then 1, then 3);
	// the done bitmap is the only record of what completed.
	done := []bool{false, true, false, true, true}
	got := FilterCompleted(pts, done)
	want := []string{"c1", "c3", "c4"}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v (index order, not completion order)", got, want)
		}
	}
	if all := FilterCompleted(pts, []bool{true, true, true, true, true}); len(all) != 5 || all[0] != "c0" {
		t.Fatalf("full grid: got %v", all)
	}
}

// smallGrid is a 4-cell config cheap enough to simulate for real.
func smallGrid() SweepConfig {
	return SweepConfig{
		Algorithms: []string{"fcfs", "easy"},
		Shares:     []float64{0, 1},
		Seeds:      []uint64{1},
		Jobs:       6,
		Nodes:      16,
	}
}

// fakeCells returns a runCell seam producing deterministic synthetic
// results and counting executions per cell index.
func fakeCells(t *testing.T, runs map[int]int, mu *sync.Mutex, hook func(ctx context.Context, c GridCell) error) func(ctx context.Context, c GridCell) (SweepPoint, error) {
	t.Helper()
	return func(ctx context.Context, c GridCell) (SweepPoint, error) {
		mu.Lock()
		runs[c.Index]++
		mu.Unlock()
		if hook != nil {
			if err := hook(ctx, c); err != nil {
				return SweepPoint{}, err
			}
		}
		return fakePoint(c), nil
	}
}

// fakePoint is the synthetic result fakeCells reports for c.
func fakePoint(c GridCell) SweepPoint {
	return SweepPoint{
		Algorithm:      c.Algorithm,
		MalleableShare: c.Share,
		Seed:           c.Seed,
		Jobs:           c.Jobs,
		Events:         uint64(1000 + c.Index),
	}
}

// fakeCSV is the CSV of fakePoint over the cells with the given indices
// — what a grid of fakeCells emits when exactly those cells completed.
func fakeCSV(t *testing.T, cfg SweepConfig, cells ...int) string {
	t.Helper()
	pts := make([]SweepPoint, len(cells))
	for i, c := range cells {
		pts[i] = fakePoint(CellAt(cfg, c))
	}
	var buf bytes.Buffer
	if err := WriteSweepCSV(&buf, pts); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// emitCSV is g.EmitCSV into a string, failing t on error.
func emitCSV(t *testing.T, g *Grid) string {
	t.Helper()
	var buf bytes.Buffer
	if _, err := g.EmitCSV(&buf, nil); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestGridRunMatchesSweep pins that a journaled grid run over real
// simulations emits the CSV of the in-process Sweep, modulo the
// canonicalized wall clock (journal results carry wall_ms=0).
func TestGridRunMatchesSweep(t *testing.T) {
	cfg := smallGrid()
	direct, err := Sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range direct {
		direct[i].WallMillis = 0
	}
	var want bytes.Buffer
	if err := WriteSweepCSV(&want, direct); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "grid.jsonl")
	grid, err := OpenGrid(path, cfg, GridOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer grid.Close()
	if err := grid.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := grid.Store().Counts(); got[distwork.StateDone] != len(direct) {
		t.Fatalf("grid counts %+v, want %d done", got, len(direct))
	}
	if got := emitCSV(t, grid); got != want.String() {
		t.Fatalf("grid CSV differs from Sweep:\n got:\n%s\nwant:\n%s", got, want.String())
	}
}

// TestGridResumeNoRerun pins resume semantics: a grid interrupted
// mid-run and reopened with Resume re-runs only the unfinished cells —
// completed cells replay from the journal — and the merged CSV is
// byte-identical to an uninterrupted run.
func TestGridResumeNoRerun(t *testing.T) {
	cfg := smallGrid()
	cells := GridCells(cfg)

	// Reference: uninterrupted run with the same fake cells.
	var mu sync.Mutex
	refRuns := map[int]int{}
	refPath := filepath.Join(t.TempDir(), "ref.jsonl")
	refGrid, err := OpenGrid(refPath, cfg, GridOptions{Workers: 1, runCell: fakeCells(t, refRuns, &mu, nil)})
	if err != nil {
		t.Fatal(err)
	}
	if err := refGrid.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	var refCSV bytes.Buffer
	if _, err := refGrid.EmitCSV(&refCSV, nil); err != nil {
		t.Fatal(err)
	}
	refGrid.Close()

	// Interrupted run: sequential workers, the third cell aborts the ctx
	// (standing in for the process being killed mid-cell).
	path := filepath.Join(t.TempDir(), "grid.jsonl")
	runs := map[int]int{}
	ctx1, cancel1 := context.WithCancel(context.Background())
	defer cancel1()
	killAt := 2
	grid1, err := OpenGrid(path, cfg, GridOptions{
		Workers: 1,
		runCell: fakeCells(t, runs, &mu, func(ctx context.Context, c GridCell) error {
			if c.Index == killAt {
				cancel1()
				return fmt.Errorf("cell stopped: %w", ctx.Err())
			}
			return nil
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := grid1.Run(ctx1); err == nil {
		t.Fatal("interrupted run should report an error")
	}
	if got := emitCSV(t, grid1); got != fakeCSV(t, cfg, 0, 1) {
		t.Fatalf("first run CSV, want cells 0 and 1 only:\n%s", got)
	}
	grid1.Close()

	// Resume: only unfinished cells run.
	grid2, err := OpenGrid(path, cfg, GridOptions{
		Workers: 1, Resume: true,
		runCell: fakeCells(t, runs, &mu, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer grid2.Close()
	if err := grid2.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := grid2.Store().Counts(); got[distwork.StateDone] != len(cells) {
		t.Fatalf("counts after resume %+v, want %d done", got, len(cells))
	}
	for i := range cells {
		wantRuns := 1
		if i == killAt {
			wantRuns = 2 // the interrupted cell itself re-runs
		}
		if runs[i] != wantRuns {
			t.Fatalf("cell %d ran %d times, want %d (completed cells must not re-run)", i, runs[i], wantRuns)
		}
	}
	if got := emitCSV(t, grid2); got != refCSV.String() {
		t.Fatalf("resumed CSV differs from uninterrupted run:\n got:\n%s\nwant:\n%s", got, refCSV.String())
	}
}

// TestGridRefusesMismatch pins the journal-vs-grid safety checks.
func TestGridRefusesMismatch(t *testing.T) {
	cfg := smallGrid()
	var mu sync.Mutex
	path := filepath.Join(t.TempDir(), "grid.jsonl")
	g, err := OpenGrid(path, cfg, GridOptions{Workers: 1, runCell: fakeCells(t, map[int]int{}, &mu, nil)})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	g.Close()

	// Existing journal without Resume is refused.
	if _, err := OpenGrid(path, cfg, GridOptions{}); err == nil || !strings.Contains(err.Error(), "already exists") {
		t.Fatalf("want already-exists refusal, got %v", err)
	}
	// Resume with a different grid is refused.
	other := cfg
	other.Seeds = []uint64{1, 2}
	if _, err := OpenGrid(path, other, GridOptions{Resume: true}); err == nil || !strings.Contains(err.Error(), "different sweep") {
		t.Fatalf("want different-sweep refusal, got %v", err)
	}
}

// TestGridFailedCellLowestIndexWins pins the deterministic error
// contract shared with runIndexedCtx.
func TestGridFailedCellLowestIndexWins(t *testing.T) {
	cfg := smallGrid()
	var mu sync.Mutex
	grid, err := OpenGrid("", cfg, GridOptions{
		Workers: 2,
		runCell: fakeCells(t, map[int]int{}, &mu, func(_ context.Context, c GridCell) error {
			if c.Index == 1 || c.Index == 3 {
				return fmt.Errorf("boom %d", c.Index)
			}
			return nil
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer grid.Close()
	if err := grid.Run(context.Background()); err == nil || !strings.Contains(err.Error(), "cell 1") {
		t.Fatalf("want lowest failing index in error, got %v", err)
	}
	if err := grid.Err(); err == nil || !strings.Contains(err.Error(), "cell 1") {
		t.Fatalf("want lowest failing index from Err, got %v", err)
	}
	if got := grid.Store().Counts(); got[distwork.StateDone] != 2 || got[distwork.StateFailed] != 2 {
		t.Fatalf("counts %+v, want 2 done and 2 failed", got)
	}
	if got := emitCSV(t, grid); got != fakeCSV(t, cfg, 0, 2) {
		t.Fatalf("CSV, want cells 0 and 2 only:\n%s", got)
	}
}

// TestGridLeaseExpiryReclaims exercises the work-stealing path through
// the store underneath a grid: a claim that never heartbeats lapses and
// the cell is claimed again.
func TestGridLeaseExpiryReclaims(t *testing.T) {
	cfg := smallGrid()
	grid, err := OpenGrid("", cfg, GridOptions{Lease: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer grid.Close()
	st := grid.Store()
	claimed := st.TryClaimBatch("w-dead", 1)
	if len(claimed) != 1 {
		t.Fatal("claim failed")
	}
	deadline := time.Now().Add(5 * time.Second)
	for st.ExpireLeases() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("lease never expired")
		}
		time.Sleep(5 * time.Millisecond)
	}
	stolen := st.TryClaimBatch("w-live", 1)
	if len(stolen) != 1 || stolen[0].ID != claimed[0].ID || stolen[0].Attempts != 2 {
		t.Fatalf("steal: %+v", stolen)
	}
}

// TestGridCellLifecycle pins what one cell costs on the local path: the
// journal holds exactly three records per completed cell (claimed,
// running, done) and two plus the failure for a failed one, OnCellDone
// fires once per completed cell and never for a failed one.
func TestGridCellLifecycle(t *testing.T) {
	cfg := smallGrid()
	path := filepath.Join(t.TempDir(), "grid.jsonl")
	var mu sync.Mutex
	var cellDone atomic.Int64
	grid, err := OpenGrid(path, cfg, GridOptions{
		Workers:    1,
		OnCellDone: func() { cellDone.Add(1) },
		runCell: fakeCells(t, map[int]int{}, &mu, func(_ context.Context, c GridCell) error {
			if c.Index == 2 {
				return errors.New("boom 2")
			}
			return nil
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer grid.Close()
	if err := grid.Run(context.Background()); err == nil || !strings.Contains(err.Error(), "boom 2") {
		t.Fatalf("Run: %v, want cell 2's failure", err)
	}
	if got := cellDone.Load(); got != 3 {
		t.Errorf("OnCellDone fired %d times, want 3 (one per completed cell)", got)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	states := map[string][]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n")[1:] { // [0] is the journal header
		var rec struct{ ID, State string }
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("journal line %q: %v", line, err)
		}
		states[rec.ID] = append(states[rec.ID], rec.State)
	}
	for i := 0; i < 4; i++ {
		id, want := fmt.Sprintf("c%06d", i+1), "claimed running done"
		if i == 2 {
			want = "claimed running failed"
		}
		if got := strings.Join(states[id], " "); got != want {
			t.Errorf("journal records of %s: %q, want %q", id, got, want)
		}
	}
}

// TestRunCellTaskInterrupt: a run stopped by its context reports
// distwork.ErrInterrupted naming the cell — the note a worker releases
// the cell with — while a cell's own failure stays a plain error.
func TestRunCellTaskInterrupt(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cell := CellAt(smallGrid(), 1)
	_, err := RunCellTask(ctx, distwork.Task[GridCell]{ID: "c000002", Payload: cell})
	want := fmt.Sprintf("interrupted at cell 1 (%s, %g, %d)", cell.Algorithm, cell.Share, cell.Seed)
	if !errors.Is(err, distwork.ErrInterrupted) || !strings.Contains(err.Error(), want) {
		t.Fatalf("interrupted run: %v", err)
	}
	cell.Algorithm = "no-such-algorithm"
	_, err = RunCellTask(context.Background(), distwork.Task[GridCell]{ID: "c000002", Payload: cell})
	if err == nil || errors.Is(err, distwork.ErrInterrupted) {
		t.Fatalf("failing cell: %v, want a plain error", err)
	}
}
