package experiments

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/distwork"
)

// TestGridEmitCSVMatchesWriteSweepCSV pins that the streaming CSV
// emitter is byte-identical to writing the cells' points wholesale — the
// equivalence that lets million-cell sweeps skip materialization.
func TestGridEmitCSVMatchesWriteSweepCSV(t *testing.T) {
	cfg := smallGrid()
	var mu sync.Mutex
	path := filepath.Join(t.TempDir(), "grid.jsonl")
	grid, err := OpenGrid(path, cfg, GridOptions{Workers: 2, runCell: fakeCells(t, map[int]int{}, &mu, nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer grid.Close()
	if err := grid.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := fakeCSV(t, cfg, 0, 1, 2, 3)
	var got bytes.Buffer
	rows, err := grid.EmitCSV(&got, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rows != GridSize(cfg) {
		t.Fatalf("EmitCSV wrote %d rows, want %d", rows, GridSize(cfg))
	}
	if got.String() != want {
		t.Fatalf("EmitCSV differs from WriteSweepCSV:\n got:\n%s\nwant:\n%s", got.String(), want)
	}
}

// TestGridCrashMidGroupCommit is the grid-level torn-tail pin: a
// group-committed grid journal is killed mid-run with a half-written
// record at its tail, and the resumed sweep re-runs only the lost cells,
// producing a byte-identical CSV.
func TestGridCrashMidGroupCommit(t *testing.T) {
	cfg := smallGrid()
	size := GridSize(cfg)
	var mu sync.Mutex

	// Reference CSV from an uninterrupted run.
	refPath := filepath.Join(t.TempDir(), "ref.jsonl")
	refGrid, err := OpenGrid(refPath, cfg, GridOptions{
		Workers: 1, GroupCommit: time.Millisecond,
		runCell: fakeCells(t, map[int]int{}, &mu, nil),
	})
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

	// Interrupted run: the third cell cancels (the "kill"), then a torn
	// record lands on the journal's tail, as a crash mid group commit
	// would leave it.
	path := filepath.Join(t.TempDir(), "grid.jsonl")
	runs := map[int]int{}
	ctx1, cancel1 := context.WithCancel(context.Background())
	defer cancel1()
	killAt := 2
	grid1, err := OpenGrid(path, cfg, GridOptions{
		Workers: 1, GroupCommit: time.Millisecond,
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
	grid1.Close()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"id":"c00`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	grid2, err := OpenGrid(path, cfg, GridOptions{
		Workers: 1, Resume: true, GroupCommit: time.Millisecond,
		runCell: fakeCells(t, runs, &mu, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer grid2.Close()
	if err := grid2.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < size; i++ {
		wantRuns := 1
		if i == killAt {
			wantRuns = 2 // the interrupted cell itself re-runs
		}
		if runs[i] != wantRuns {
			t.Fatalf("cell %d ran %d times, want %d", i, runs[i], wantRuns)
		}
	}
	var gotCSV bytes.Buffer
	if _, err := grid2.EmitCSV(&gotCSV, nil); err != nil {
		t.Fatal(err)
	}
	if gotCSV.String() != refCSV.String() {
		t.Fatalf("resumed CSV differs:\n got:\n%s\nwant:\n%s", gotCSV.String(), refCSV.String())
	}
}

// TestGridMultiFileJournalRefused pins that resuming a grid journal
// whose header declares several files — the layout older builds could
// write — is refused by name and leaves the journal untouched.
func TestGridMultiFileJournalRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "grid.jsonl")
	content := `{"journal_shards":2,"shard":0}` + "\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := OpenGrid(path, smallGrid(), GridOptions{Resume: true})
	if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "declares 2 files") {
		t.Fatalf("want a refusal naming %s and its two files, got %v", path, err)
	}
	if data, _ := os.ReadFile(path); string(data) != content {
		t.Fatalf("refused journal was rewritten: %q", data)
	}
}

// TestLargeGridStreamedMemory is the O(active)-memory smoke: a 50k-cell
// grid runs through a group-committed journal with fake
// instant cells, and the live heap never grows with the grid — the
// budget below is far under what 50k resident results would take, and
// holds again across a resume that replays the whole journal.
func TestLargeGridStreamedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("large-grid smoke skipped in -short")
	}
	if raceEnabled {
		t.Skip("memory pin, not a concurrency test; too slow under -race")
	}
	seeds := make([]uint64, 2500)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	cfg := SweepConfig{
		Algorithms: []string{"a", "b", "c", "d", "e"},
		Shares:     []float64{0, 0.25, 0.5, 0.75},
		Seeds:      seeds,
		Jobs:       10,
		Nodes:      16,
	}
	size := GridSize(cfg)
	if size != 50000 {
		t.Fatalf("grid size %d, want 50000", size)
	}
	// Synthetic instant cells with a payload big enough (~1KB encoded)
	// that keeping 50k of them resident would cost ~50MB.
	pad := strings.Repeat("x", 900)
	runCell := func(ctx context.Context, c GridCell) (SweepPoint, error) {
		return SweepPoint{
			Algorithm:      c.Algorithm + pad,
			MalleableShare: c.Share,
			Seed:           c.Seed,
			Jobs:           c.Jobs,
			Events:         uint64(c.Index),
		}, nil
	}
	var mem runtime.MemStats
	heapNow := func() uint64 {
		runtime.GC()
		runtime.ReadMemStats(&mem)
		return mem.HeapAlloc
	}
	base := heapNow()

	path := filepath.Join(t.TempDir(), "grid.jsonl")
	grid, err := OpenGrid(path, cfg, GridOptions{
		Workers: 4, GroupCommit: 5 * time.Millisecond,
		runCell: runCell,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := grid.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := grid.Store().Counts()[distwork.StateDone]; got != size {
		t.Fatalf("completed %d cells, want %d", got, size)
	}
	const budget = 24 << 20 // ~1/2 of what resident results would take
	grown := heapNow() - base
	if grown > budget {
		t.Fatalf("heap grew %d bytes during 50k-cell run, budget %d", grown, budget)
	}
	t.Logf("run: heap grew %d bytes", grown)
	grid.Close()

	// Resume replays 50k settled records; the store's index (record
	// location and state per cell) is all that may stay resident.
	grid2, err := OpenGrid(path, cfg, GridOptions{
		Workers: 4, Resume: true, GroupCommit: 5 * time.Millisecond,
		runCell: func(ctx context.Context, c GridCell) (SweepPoint, error) {
			t.Errorf("cell %d re-ran on resume", c.Index)
			return SweepPoint{}, fmt.Errorf("re-run")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer grid2.Close()
	if err := grid2.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if grown = heapNow() - base; grown > budget {
		t.Fatalf("heap grew %d bytes after resume replay, budget %d", grown, budget)
	}
	t.Logf("resume: heap grew %d bytes", grown)
	// The streamed CSV still sees every row.
	var n int
	count := &countingWriter{}
	if n, err = grid2.EmitCSV(count, nil); err != nil {
		t.Fatal(err)
	}
	if n != size {
		t.Fatalf("EmitCSV rows %d, want %d", n, size)
	}
}

type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}
