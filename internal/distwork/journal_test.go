package distwork

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestStaleCompactionTempIgnored pins the compaction's one commit point,
// the rename of path.tmp over path: a kill before it leaves a truncated
// path.tmp beside the intact journal, and the next Open recovers every
// task and state from the journal and leaves only path behind.
func TestStaleCompactionTempIgnored(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")
	s, err := Open(path, Options[int]{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		s.Submit(i)
	}
	done, _ := s.TryClaim("w1")
	running, _ := s.TryClaim("w1")
	if err := s.Finish(done.ID, "w1", "r1", nil); err != nil {
		t.Fatal(err)
	}
	if err := s.MarkRunning(running.ID, "w1"); err != nil {
		t.Fatal(err)
	}
	// Crash (no Close) during the next Open's compaction, before its rename.
	stale := `{"journal_shards":1,"shard":0}` + "\n" + `{"id":"t000001","sta`
	if err := os.WriteFile(path+".tmp", []byte(stale), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(path, Options[int]{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	want := map[string]State{"t000001": StateDone, "t000002": StatePending, "t000003": StatePending, "t000004": StatePending}
	if got := len(s2.List()); got != len(want) {
		t.Fatalf("recovered %d tasks, want %d", got, len(want))
	}
	for id, st := range want {
		if task, ok := s2.Get(id); !ok || task.State != st {
			t.Fatalf("%s: got %+v, want %s", id, task, st)
		}
	}
	if task, _ := s2.Get(done.ID); task.Result != "r1" {
		t.Fatalf("finished task lost its result: %+v", task)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "journal.jsonl" {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("files after reopen: %v, want only journal.jsonl", names)
	}
}

// TestGroupCommitDurableAgainstKill pins the group-commit durability
// contract: appends inside an unsynced window are still flushed to the
// OS per transition, so a process kill (simulated: drop the store
// without Close, never letting the syncer run) loses nothing.
func TestGroupCommitDurableAgainstKill(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")
	reg := obs.NewRegistry()
	s, err := Open(path, Options[int]{GroupCommit: time.Hour, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		s.Submit(i)
	}
	c, _ := s.TryClaim("w1")
	if err := s.Finish(c.ID, "w1", "result", nil); err != nil {
		t.Fatal(err)
	}
	// Simulated kill: reopen without Close; the hour-long window means no
	// group commit ever ran.
	if v := reg.Counter("distwork_journal_group_commits_total").Value(); v != 0 {
		t.Fatalf("group commits before window: %v", v)
	}
	s2, err := Open(path, Options[int]{GroupCommit: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := len(s2.List()); got != 8 {
		t.Fatalf("recovered %d tasks, want 8", got)
	}
	fin, _ := s2.Get(c.ID)
	if fin.State != StateDone || fin.Result != "result" {
		t.Fatalf("finished task lost inside group-commit window: %+v", fin)
	}
}

// TestGroupCommitCrashMidCommitTornTail is the crash-mid-group-commit
// pin: a batch of appends lands, the process dies while the final
// record of the window is half-written (a torn tail), and
// recovery keeps every whole record while dropping the torn one.
func TestGroupCommitCrashMidCommitTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")
	s, err := Open(path, Options[int]{GroupCommit: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	var last Task[int]
	for i := 0; i < 6; i++ {
		last, _ = s.Submit(i)
	}
	// Crash mid-append of the next record: the journal ends in a torn line.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"id":"t000007","sta`)
	f.Close()
	s2, err := Open(path, Options[int]{GroupCommit: time.Hour})
	if err != nil {
		t.Fatalf("crash mid group commit should recover: %v", err)
	}
	defer s2.Close()
	if got := len(s2.List()); got != 6 {
		t.Fatalf("recovered %d tasks, want 6 (torn record dropped)", got)
	}
	if got, _ := s2.Get(last.ID); got.State != StatePending {
		t.Fatalf("last whole record lost: %+v", got)
	}
	// The sequence resumes after the highest recovered id.
	fresh, err := s2.Submit(99)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.ID != "t000007" {
		t.Fatalf("fresh id after torn tail: %s, want t000007", fresh.ID)
	}
}

// TestJournalMetaRefusal pins the work-set fingerprint guard.
func TestJournalMetaRefusal(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")
	s, err := Open(path, Options[int]{Meta: "grid-a"})
	if err != nil {
		t.Fatal(err)
	}
	s.Submit(1)
	s.Close()
	if _, err := Open(path, Options[int]{Meta: "grid-b"}); !errors.Is(err, ErrMetaMismatch) ||
		!strings.Contains(err.Error(), path) {
		t.Fatalf("want ErrMetaMismatch naming the journal, got %v", err)
	}
	// The fingerprint survives an open with no meta: afterwards the same
	// meta still resumes and a different one is still refused.
	s2, err := Open(path, Options[int]{})
	if err != nil {
		t.Fatal(err)
	}
	s2.Close()
	if _, err := Open(path, Options[int]{Meta: "grid-b"}); !errors.Is(err, ErrMetaMismatch) {
		t.Fatalf("meta not carried forward: got %v", err)
	}
	s3, err := Open(path, Options[int]{Meta: "grid-a"})
	if err != nil {
		t.Fatalf("meta carried forward: %v", err)
	}
	s3.Close()
}

// TestBatchClaimHeartbeatFinish pins the batched lease operations:
// claim-N hands out oldest-first, heartbeat-many and finish-many report
// per-item outcomes, and settlement stays exactly-once per task.
func TestBatchClaimHeartbeatFinish(t *testing.T) {
	clk := newFakeClock()
	reg := obs.NewRegistry()
	s := New(Options[int]{Lease: time.Minute, Now: clk.Now, Metrics: reg})
	for i := 0; i < 5; i++ {
		s.Submit(i)
	}
	batch := s.TryClaimBatch("w1", 3)
	if len(batch) != 3 {
		t.Fatalf("claimed %d, want 3", len(batch))
	}
	for i, task := range batch {
		if want := fmt.Sprintf("t%06d", i+1); task.ID != want {
			t.Fatalf("batch order: got %s at %d, want %s", task.ID, i, want)
		}
	}
	ids := []string{batch[0].ID, batch[1].ID, "t000099"}
	errs := s.HeartbeatBatch("w1", ids)
	if errs[0] != nil || errs[1] != nil {
		t.Fatalf("heartbeat own claims: %v", errs)
	}
	if !errors.Is(errs[2], ErrNotFound) {
		t.Fatalf("heartbeat unknown id: %v", errs[2])
	}
	fin := s.FinishBatch("w1", []FinishItem{
		{ID: batch[0].ID, Result: "r0"},
		{ID: batch[1].ID, Error: "boom"},
		{ID: batch[2].ID, Result: "r2"},
	})
	for i, err := range fin {
		if err != nil {
			t.Fatalf("finish %d: %v", i, err)
		}
	}
	// Double-finish is rejected per item.
	again := s.FinishBatch("w1", []FinishItem{{ID: batch[0].ID, Result: "dup"}})
	if !errors.Is(again[0], ErrNotOwner) {
		t.Fatalf("double finish: %v", again[0])
	}
	counts := s.Counts()
	if counts[StateDone] != 2 || counts[StateFailed] != 1 || counts[StatePending] != 2 {
		t.Fatalf("counts: %+v", counts)
	}
	if v := reg.Counter("distwork_task_batch_claims_total").Value(); v != 1 {
		t.Fatalf("batch claims counter: %v", v)
	}
	// A stale batch finish after a steal loses only the stolen items.
	rest := s.TryClaimBatch("w2", 10)
	if len(rest) != 2 {
		t.Fatalf("rest: %d", len(rest))
	}
	clk.Advance(2 * time.Minute)
	stolen := s.TryClaimBatch("w3", 10)
	if len(stolen) != 2 {
		t.Fatalf("stolen: %d", len(stolen))
	}
	late := s.FinishBatch("w2", []FinishItem{{ID: rest[0].ID, Result: "late"}})
	if !errors.Is(late[0], ErrNotOwner) {
		t.Fatalf("late finish after steal: %v", late[0])
	}
}

// TestSourceFedStore pins the streamed work set: tasks are fed lazily
// in sequence order, external submits are rejected, and the store
// settles once the source drains and every fed task is terminal.
func TestSourceFedStore(t *testing.T) {
	const n = 25
	var fedMax uint64
	s := New(Options[int]{Source: func(seq uint64) (int, bool) {
		if seq > n {
			return 0, false
		}
		if seq > fedMax {
			fedMax = seq
		}
		return int(seq) * 10, true
	}})
	if _, err := s.Submit(1); err == nil {
		t.Fatal("source-fed store must reject Submit")
	}
	if s.Settled() {
		t.Fatal("undrained source must not be settled")
	}
	seen := 0
	for {
		batch := s.TryClaimBatch("w1", 4)
		if len(batch) == 0 {
			break
		}
		if fedMax > uint64(seen+2*len(batch))+4 {
			t.Fatalf("feeding ran ahead of claims: fed %d, seen %d", fedMax, seen)
		}
		for _, task := range batch {
			if task.Payload != (seen+1)*10 {
				t.Fatalf("claim order: payload %d, want %d", task.Payload, (seen+1)*10)
			}
			seen++
			if err := s.Finish(task.ID, "w1", "", nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	if seen != n {
		t.Fatalf("claimed %d tasks, want %d", seen, n)
	}
	if !s.Settled() {
		t.Fatal("drained and finished source should settle")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.WaitSettled(ctx); err != nil {
		t.Fatalf("WaitSettled: %v", err)
	}
}

// TestEvictingStoreJournalIsTheResult pins the O(active)-memory mode:
// terminal tasks leave the heap, Each reads their journal records back,
// late finishes get the exactly-once 409, and a resume re-feeds only
// what was never journaled.
func TestEvictingStoreJournalIsTheResult(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")
	const n = 30
	source := func(seq uint64) (int, bool) {
		if seq > n {
			return 0, false
		}
		return int(seq) * 7, true
	}
	opts := Options[int]{
		GroupCommit: time.Millisecond,
		Source:      source,
		Evict:       true,
	}
	s, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Run the first 18 to terminal, leave 2 claimed, crash.
	batch := s.TryClaimBatch("w1", 20)
	if len(batch) != 20 {
		t.Fatalf("claimed %d, want 20", len(batch))
	}
	var items []FinishItem
	for _, task := range batch[:18] {
		items = append(items, FinishItem{ID: task.ID, Result: fmt.Sprintf("res-%d", task.Payload)})
	}
	if errs := s.FinishBatch("w1", items); errs[0] != nil {
		t.Fatalf("finish: %v", errs)
	}
	if got := len(s.List()); got != 2 {
		t.Fatalf("resident after eviction: %d tasks, want 2 (the claimed pair)", got)
	}
	// Evicted results stream back out of the journal, in sequence order
	// and interleaved with the resident pair.
	all := eachTask(t, s)
	if len(all) != 20 {
		t.Fatalf("Each visited %d tasks, want 20", len(all))
	}
	for i, task := range all {
		wantState, wantResult := StateDone, fmt.Sprintf("res-%d", (i+1)*7)
		if i >= 18 {
			wantState, wantResult = StateClaimed, ""
		}
		if task.ID != fmt.Sprintf("t%06d", i+1) || task.State != wantState || task.Result != wantResult {
			t.Fatalf("Each task %d: %+v", i, task)
		}
	}
	// Late transitions on evicted ids: conflict, not not-found.
	if err := s.Finish("t000003", "w1", "dup", nil); !errors.Is(err, ErrNotOwner) {
		t.Fatalf("finish on evicted id: %v", err)
	}
	if st, err := s.Cancel("t000003"); err != nil || !st.Terminal() {
		t.Fatalf("cancel on evicted id: %v %v", st, err)
	}

	// Crash (no Close) and resume: replay indexes the settled set without
	// loading it, the two claimed tasks requeue, and the remainder re-feed.
	s2, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := len(s2.List()); got != 2 {
		t.Fatalf("resident after replay: %d tasks, want 2 (the requeued pair)", got)
	}
	if got := s2.Counts()[StateDone]; got != 18 {
		t.Fatalf("replay indexed %d settled tasks, want 18", got)
	}
	seen := map[int]bool{}
	for {
		c, ok := s2.TryClaim("w2")
		if !ok {
			break
		}
		seen[c.Payload] = true
		if err := s2.Finish(c.ID, "w2", fmt.Sprintf("res-%d", c.Payload), nil); err != nil {
			t.Fatal(err)
		}
	}
	if len(seen) != n-18 {
		t.Fatalf("resumed run claimed %d tasks, want %d", len(seen), n-18)
	}
	for seq := uint64(19); seq <= n; seq++ {
		if !seen[int(seq)*7] {
			t.Fatalf("sequence %d never re-fed after resume", seq)
		}
	}
	if !s2.Settled() {
		t.Fatal("store should settle after resume finishes the remainder")
	}
	// Every result — pre-crash and post-resume — reads back from the journal.
	all = eachTask(t, s2)
	if len(all) != n {
		t.Fatalf("Each after resume visited %d tasks, want %d", len(all), n)
	}
	for i, task := range all {
		if task.State != StateDone || task.Result != fmt.Sprintf("res-%d", (i+1)*7) {
			t.Fatalf("resumed Each task %d: %+v", i, task)
		}
	}
	counts := s2.Counts()
	if counts[StateDone] != n {
		t.Fatalf("done count across eviction and resume: %+v", counts)
	}
}

// TestUnjournaledSettlementStaysResident pins that an evicting store
// drops a settled task only once the journal took its record. After a
// latched journal error — a failed group fsync, or a failed write, which
// also leaves the append buffer's error sticky — a settlement's result
// exists nowhere else, so the task stays resident and Each still yields
// it, along with what was evicted before the error; Close reports the
// error.
func TestUnjournaledSettlementStaysResident(t *testing.T) {
	for name, fail := range map[string]func(jr *journal){
		"fsync": func(jr *journal) { jr.fail(syscall.EIO) },
		"write": func(jr *journal) { jr.w = bufio.NewWriter(failWriter{}) },
	} {
		t.Run(name, func(t *testing.T) {
			s, err := Open(filepath.Join(t.TempDir(), "journal.jsonl"), Options[int]{
				Evict:  true,
				Source: func(seq uint64) (int, bool) { return int(seq), seq <= 4 },
			})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			var items []FinishItem
			for _, c := range s.TryClaimBatch("w", 4) {
				items = append(items, FinishItem{ID: c.ID, Result: fmt.Sprintf("res-%d", c.Payload)})
			}
			if err := s.FinishBatch("w", items[:1])[0]; err != nil {
				t.Fatal(err)
			}
			fail(s.journal)
			for i, err := range s.FinishBatch("w", items[1:]) {
				if err != nil {
					t.Fatalf("finish %d: %v", i+1, err)
				}
			}
			if !s.Settled() || s.Counts()[StateDone] != 4 {
				t.Fatalf("settled=%v counts=%+v, want 4 done", s.Settled(), s.Counts())
			}
			if got := len(s.List()); got != 3 {
				t.Fatalf("%d tasks resident, want the 3 whose records never reached the journal", got)
			}
			all := eachTask(t, s)
			for i, task := range all {
				if task.State != StateDone || task.Result != fmt.Sprintf("res-%d", i+1) {
					t.Fatalf("Each task %d: %+v", i, task)
				}
			}
			if len(all) != 4 {
				t.Fatalf("Each visited %d tasks, want 4", len(all))
			}
			if err := s.Close(); err == nil {
				t.Fatal("Close reported no journal error")
			}
		})
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, syscall.ENOSPC }

// TestEvictedTaskKeepsItsState pins that an evicted task answers with
// the state it settled in, live and after replay: Cancel returns it,
// and a late Finish's NotOwnerError names it.
func TestEvictedTaskKeepsItsState(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	s, err := Open(path, Options[int]{Evict: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		s.Submit(i)
	}
	c := s.TryClaimBatch("w", 3)
	s.Finish(c[0].ID, "w", "", errors.New("boom"))
	s.FinishCancelled(c[1].ID, "w", "")
	s.Finish(c[2].ID, "w", "r", nil)
	want := map[string]State{"t000001": StateFailed, "t000002": StateCancelled, "t000003": StateDone}
	check := func(s *Store[int]) {
		t.Helper()
		for id, st := range want {
			if _, ok := s.Get(id); ok {
				t.Fatalf("%s is resident after settling", id)
			}
			if got, err := s.Cancel(id); err != nil || got != st {
				t.Fatalf("Cancel(%s) = %s, %v; want %s", id, got, err, st)
			}
			var no *NotOwnerError
			if err := s.Finish(id, "w", "late", nil); !errors.As(err, &no) || no.State != st {
				t.Fatalf("late Finish(%s): %v, want NotOwnerError in state %s", id, err, st)
			}
		}
	}
	check(s)
	s.Close()
	s2, err := Open(path, Options[int]{Evict: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	check(s2)
}

// TestEachDuringSettles runs Each while workers settle and evict tasks,
// so the index is written and the journal appended as Each reads both:
// every pass sees each task once, in order, and every done task with its
// result.
func TestEachDuringSettles(t *testing.T) {
	const n = 200
	s, err := Open(filepath.Join(t.TempDir(), "journal.jsonl"), Options[int]{
		Evict: true, GroupCommit: time.Millisecond,
		Source: func(seq uint64) (int, bool) { return int(seq), seq <= n },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			for {
				batch := s.TryClaimBatch(name, 3)
				if len(batch) == 0 {
					return
				}
				items := make([]FinishItem, len(batch))
				for i, c := range batch {
					items[i] = FinishItem{ID: c.ID, Result: fmt.Sprintf("res-%d", c.Payload)}
				}
				for _, err := range s.FinishBatch(name, items) {
					if err != nil {
						t.Error(err)
					}
				}
			}
		}(fmt.Sprintf("w%d", w))
	}
	check := func() {
		i := 0
		err := s.Each(func(task Task[int]) error {
			i++
			if task.ID != fmt.Sprintf("t%06d", i) {
				return fmt.Errorf("visited %s at position %d", task.ID, i)
			}
			if task.State == StateDone && task.Result != fmt.Sprintf("res-%d", i) {
				return fmt.Errorf("%s done with result %q", task.ID, task.Result)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for !s.Settled() {
		check()
	}
	wg.Wait()
	check()
	if got := len(eachTask(t, s)); got != n {
		t.Fatalf("Each visited %d tasks, want %d", got, n)
	}
}

// eachTask collects what s.Each visits.
func eachTask[P any](t *testing.T, s *Store[P]) []Task[P] {
	t.Helper()
	var out []Task[P]
	if err := s.Each(func(task Task[P]) error {
		out = append(out, task)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestEmptySourceSettles pins that a source with zero items settles
// immediately: a coordinator waiting on an empty grid must not hang.
func TestEmptySourceSettles(t *testing.T) {
	s := New(Options[int]{Source: func(seq uint64) (int, bool) { return 0, false }})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := s.WaitSettled(ctx); err != nil {
		t.Fatalf("empty source must settle: %v", err)
	}
}

// TestUnifiedReplay pins that the one replay path rebuilds the same
// store whether terminal tasks stay resident or are evicted: the same
// crashed journal reopened with Evict off and on yields the same task
// states and results, claim order, Counts() and Each; only where a
// terminal task is read from differs (memory vs journal).
func TestUnifiedReplay(t *testing.T) {
	crashed := filepath.Join(t.TempDir(), "journal.jsonl")
	s, err := Open(crashed, Options[int]{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 8; i++ {
		s.Submit(i)
	}
	claimed := s.TryClaimBatch("w1", 5)
	s.Finish(claimed[0].ID, "w1", "r1", nil)
	s.Finish(claimed[1].ID, "w1", "", errors.New("boom"))
	s.MarkRunning(claimed[2].ID, "w1")
	s.Release(claimed[4].ID, "w1", "put back")
	s.Cancel(claimed[3].ID) // active: a journaled request the worker never acted on
	s.Cancel("t000008")
	// Crash: no Close.

	type outcome struct {
		state  State
		result string
	}
	want := map[string]outcome{
		"t000001": {StateDone, "r1"}, "t000002": {StateFailed, ""},
		"t000003": {StatePending, ""}, "t000004": {StateCancelled, ""},
		"t000005": {StatePending, ""}, "t000006": {StatePending, ""},
		"t000007": {StatePending, ""}, "t000008": {StateCancelled, ""},
	}
	wantClaims := []string{"t000003", "t000005", "t000006", "t000007"}
	for _, tc := range []struct {
		name         string
		evict        bool
		wantResident int
	}{
		{"resident", false, 8},
		{"evicting", true, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "journal.jsonl")
			data, err := os.ReadFile(crashed)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			s, err := Open(path, Options[int]{Evict: tc.evict})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if got := len(s.List()); got != tc.wantResident {
				t.Fatalf("resident tasks: %d, want %d", got, tc.wantResident)
			}
			counts := s.Counts()
			if counts[StateDone] != 1 || counts[StateFailed] != 1 || counts[StateCancelled] != 2 || counts[StatePending] != 4 {
				t.Fatalf("counts: %+v", counts)
			}
			all := eachTask(t, s)
			if len(all) != 8 {
				t.Fatalf("Each visited %d tasks, want 8", len(all))
			}
			for i, task := range all {
				id := fmt.Sprintf("t%06d", i+1)
				if got := (outcome{task.State, task.Result}); task.ID != id || got != want[id] {
					t.Fatalf("%s: got %s %+v, want %+v", id, task.ID, got, want[id])
				}
			}
			for i, wantID := range wantClaims {
				if c, ok := s.TryClaim("w2"); !ok || c.ID != wantID {
					t.Fatalf("claim %d: got %s ok=%v, want %s", i, c.ID, ok, wantID)
				}
			}
			if _, ok := s.TryClaim("w2"); ok {
				t.Fatal("claimed a fifth task")
			}
		})
	}
	t.Run("sequence hole", replaySequenceHole)
	t.Run("sequence beyond the source", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "journal.jsonl")
		s, err := Open(path, Options[int]{Evict: true, Source: func(seq uint64) (int, bool) { return int(seq), seq <= 3 }})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range s.TryClaimBatch("w", 3) {
			s.Finish(c.ID, "w", "r", nil)
		}
		s.Close()
		_, err = Open(path, Options[int]{Evict: true, Source: func(seq uint64) (int, bool) { return int(seq), seq <= 2 }})
		if err == nil || !strings.Contains(err.Error(), "sequence 3 is beyond the end of the source") {
			t.Fatalf("want a refusal naming sequence 3, got %v", err)
		}
	})
}

// replaySequenceHole (a TestUnifiedReplay case) pins what replay does
// with a sequence number that has no record. In a submitted work set the task is unrecoverable:
// it is dropped — NotFound, later tasks keep their order — and the drop
// is written to the flight recorder, with terminal tasks resident or
// evicted alike. In a source-fed set the cursor would never feed the gap
// again, so the journal is refused.
func replaySequenceHole(t *testing.T) {
	holed := func(t *testing.T) string {
		path := filepath.Join(t.TempDir(), "journal.jsonl")
		s, err := Open(path, Options[int]{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= 3; i++ {
			s.Submit(i)
		}
		s.Close()
		data, _ := os.ReadFile(path)
		var kept []string
		for _, line := range strings.SplitAfter(string(data), "\n") {
			if !strings.Contains(line, `"t000002"`) {
				kept = append(kept, line)
			}
		}
		if err := os.WriteFile(path, []byte(strings.Join(kept, "")), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	for _, evict := range []bool{false, true} {
		t.Run(fmt.Sprintf("submitted/evict=%v", evict), func(t *testing.T) {
			fr := obs.NewFlightRecorder(0)
			s, err := Open(holed(t), Options[int]{Evict: evict, Flight: fr, MetricPrefix: "test"})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if _, ok := s.Get("t000002"); ok {
				t.Fatal("t000002 has no record yet is resident")
			}
			if all := eachTask(t, s); len(all) != 2 || all[0].ID != "t000001" || all[1].ID != "t000003" {
				t.Fatalf("Each visited %+v, want t000001 and t000003", all)
			}
			var nf *NotFoundError
			if err := s.HeartbeatBatch("w", []string{"t000002"})[0]; !errors.As(err, &nf) {
				t.Fatalf("t000002: got %v, want NotFoundError", err)
			}
			for _, want := range []string{"t000001", "t000003"} {
				if c, ok := s.TryClaim("w"); !ok || c.ID != want {
					t.Fatalf("claim: got %s ok=%v, want %s", c.ID, ok, want)
				}
			}
			if next, _ := s.Submit(4); next.ID != "t000004" {
				t.Fatalf("next id %s, want t000004", next.ID)
			}
			var noted bool
			for _, e := range fr.Snapshot() {
				noted = noted || strings.Contains(e.Msg, "no record for t000002")
			}
			if !noted {
				t.Fatal("dropped task not written to the flight recorder")
			}
		})
	}
	t.Run("source-fed", func(t *testing.T) {
		path := holed(t)
		_, err := Open(path, Options[int]{Evict: true, Source: func(seq uint64) (int, bool) { return int(seq), seq <= 3 }})
		if err == nil || !strings.Contains(err.Error(), "sequence 2") {
			t.Fatalf("want a refusal naming sequence 2, got %v", err)
		}
	})
}
