package distwork

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkClaimFinish measures the core claim throughput the
// coordinator serves under: one submit+claim+finish cycle per op against
// a memory store that retains every terminal task (as a long-lived
// coordinator does). The pending min-heap and active-set bookkeeping
// keep the cycle O(log n) in pending tasks and independent of the
// accumulated terminal population; pinned by cmd/benchguard against
// BENCH_3.json.
func BenchmarkClaimFinish(b *testing.B) {
	s := New(Options[int]{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := s.Submit(i)
		if err != nil {
			b.Fatal(err)
		}
		c, ok := s.TryClaim("bench-worker")
		if !ok {
			b.Fatal("claim failed")
		}
		if err := s.Finish(c.ID, "bench-worker", "", nil); err != nil {
			b.Fatal(err)
		}
		_ = t
	}
}

// BenchmarkClaimContended measures claim throughput with 8 workers
// hammering TryClaim against a deep pending backlog.
func BenchmarkClaimContended(b *testing.B) {
	s := New(Options[int]{})
	for i := 0; i < b.N; i++ {
		if _, err := s.Submit(i); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var w int
	b.RunParallel(func(pb *testing.PB) {
		w++
		name := fmt.Sprintf("w%d", w)
		for pb.Next() {
			c, ok := s.TryClaim(name)
			if !ok {
				continue
			}
			_ = s.Finish(c.ID, name, "", nil)
		}
	})
}

// BenchmarkBatchClaimFinish measures the amortized settlement cycle the
// batch protocol exists for: claim 64 source-fed tasks in one locked
// pass, finish them in one locked pass, against an evicting journaled
// store with group commit — the coordinator configuration for
// million-cell sweeps. Reported per task, not per batch; pinned by
// cmd/benchguard against BENCH_4.json.
func BenchmarkBatchClaimFinish(b *testing.B) {
	const batch = 64
	dir := b.TempDir()
	s, err := Open(dir+"/journal.jsonl", Options[int]{
		GroupCommit: 2 * time.Millisecond,
		Source:      func(seq uint64) (int, bool) { return int(seq), true },
		Evict:       true,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	items := make([]FinishItem, 0, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; {
		want := batch
		if rem := b.N - n; rem < want {
			want = rem
		}
		tasks := s.TryClaimBatch("bench-worker", want)
		if len(tasks) != want {
			b.Fatalf("claimed %d, want %d", len(tasks), want)
		}
		items = items[:0]
		for _, t := range tasks {
			items = append(items, FinishItem{ID: t.ID, Result: "r"})
		}
		for i, err := range s.FinishBatch("bench-worker", items) {
			if err != nil {
				b.Fatalf("finish %d: %v", i, err)
			}
		}
		n += want
	}
}

// BenchmarkSingleClaimFinishJournaled is the unbatched baseline for
// BenchmarkBatchClaimFinish on the identical store configuration: one
// lock round trip and one journal interaction per transition instead of
// per batch.
func BenchmarkSingleClaimFinishJournaled(b *testing.B) {
	dir := b.TempDir()
	s, err := Open(dir+"/journal.jsonl", Options[int]{
		GroupCommit: 2 * time.Millisecond,
		Source:      func(seq uint64) (int, bool) { return int(seq), true },
		Evict:       true,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, ok := s.TryClaim("bench-worker")
		if !ok {
			b.Fatal("claim failed")
		}
		if err := s.Finish(c.ID, "bench-worker", "r", nil); err != nil {
			b.Fatal(err)
		}
	}
}
