package distwork

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
	"testing"
	"time"

	"repro/internal/obs"
)

// fakeClock is a settable test clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

type cellSpec struct {
	Index int    `json:"index"`
	Name  string `json:"name"`
}

func TestLifecycle(t *testing.T) {
	s := New(Options[cellSpec]{})
	task, err := s.Submit(cellSpec{Index: 7, Name: "a"})
	if err != nil {
		t.Fatal(err)
	}
	if task.ID != "t000001" || task.State != StatePending {
		t.Fatalf("submit: got %q %q", task.ID, task.State)
	}
	got, ok := s.TryClaim("w1")
	if !ok || got.ID != task.ID || got.State != StateClaimed || got.Attempts != 1 {
		t.Fatalf("claim: got %+v ok=%v", got, ok)
	}
	if got.Payload.Index != 7 || got.Payload.Name != "a" {
		t.Fatalf("claim payload: got %+v", got.Payload)
	}
	if err := s.MarkRunning(task.ID, "w1"); err != nil {
		t.Fatal(err)
	}
	if err := s.MarkPaused(task.ID, "w1"); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Get(task.ID); got.State != StatePaused {
		t.Fatalf("state = %s, want paused", got.State)
	}
	if err := s.MarkRunning(task.ID, "w1"); err != nil {
		t.Fatal(err)
	}
	if err := s.Finish(task.ID, "w1", "out", nil); err != nil {
		t.Fatal(err)
	}
	fin, _ := s.Get(task.ID)
	if fin.State != StateDone || fin.Result != "out" || fin.Worker != "" {
		t.Fatalf("finished: got %+v", fin)
	}
	if _, ok := s.TryClaim("w1"); ok {
		t.Fatal("claimed a terminal task")
	}
	if !s.Settled() {
		t.Fatal("store with only terminal tasks should be settled")
	}
}

func TestOwnershipErrors(t *testing.T) {
	s := New(Options[int]{})
	if err := s.HeartbeatBatch("w1", []string{"t000099"})[0]; !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
	task, _ := s.Submit(1)
	if _, ok := s.TryClaim("w1"); !ok {
		t.Fatal("claim failed")
	}
	err := s.MarkRunning(task.ID, "w2")
	if !errors.Is(err, ErrNotOwner) {
		t.Fatalf("want ErrNotOwner, got %v", err)
	}
	var no *NotOwnerError
	if !errors.As(err, &no) || no.Worker != "w1" || no.Claimant != "w2" || no.State != StateClaimed {
		t.Fatalf("NotOwnerError fields: %+v", no)
	}
}

func TestLeaseExpiryIsASteal(t *testing.T) {
	clk := newFakeClock()
	reg := obs.NewRegistry()
	s := New(Options[int]{Lease: time.Minute, Now: clk.Now, Metrics: reg})
	task, _ := s.Submit(42)
	if _, ok := s.TryClaim("w-dead"); !ok {
		t.Fatal("first claim failed")
	}
	// Fresh lease: nothing expires, no steal possible.
	if n := s.ExpireLeases(); n != 0 {
		t.Fatalf("premature expiry: %d", n)
	}
	if _, ok := s.TryClaim("w-live"); ok {
		t.Fatal("claimed a leased task")
	}
	// A heartbeat extends the lease past its original expiry.
	clk.Advance(40 * time.Second)
	if err := s.HeartbeatBatch("w-dead", []string{task.ID})[0]; err != nil {
		t.Fatal(err)
	}
	clk.Advance(40 * time.Second)
	if n := s.ExpireLeases(); n != 0 {
		t.Fatalf("expired %d tasks after a heartbeat", n)
	}
	clk.Advance(2 * time.Minute)
	got, ok := s.TryClaim("w-live")
	if !ok || got.ID != task.ID || got.Attempts != 2 || got.Worker != "w-live" {
		t.Fatalf("steal: got %+v ok=%v", got, ok)
	}
	// The dead worker's late operations bounce.
	if err := s.HeartbeatBatch("w-dead", []string{task.ID})[0]; !errors.Is(err, ErrNotOwner) {
		t.Fatalf("stale heartbeat: %v", err)
	}
	if err := s.Finish(task.ID, "w-dead", "", nil); !errors.Is(err, ErrNotOwner) {
		t.Fatalf("stale finish: %v", err)
	}
	if v := reg.Counter("distwork_task_steals_total").Value(); v != 1 {
		t.Fatalf("steals counter: got %v, want 1", v)
	}
	if v := reg.Counter("distwork_lease_expirations_total").Value(); v != 1 {
		t.Fatalf("expirations counter: got %v, want 1", v)
	}
	if v := reg.Counter("distwork_task_claims_total").Value(); v != 2 {
		t.Fatalf("claims counter: got %v, want 2", v)
	}
}

// TestClaimOrder pins that claims hand out tasks oldest-first, and that
// a requeued task goes back to its original place in line (the pending
// heap keys by arrival, not by requeue time).
func TestClaimOrder(t *testing.T) {
	clk := newFakeClock()
	s := New(Options[int]{Lease: time.Minute, Now: clk.Now})
	for i := 0; i < 4; i++ {
		clk.Advance(time.Second)
		if _, err := s.Submit(i); err != nil {
			t.Fatal(err)
		}
	}
	a, _ := s.TryClaim("w1") // t000001
	b, _ := s.TryClaim("w1") // t000002
	if a.ID != "t000001" || b.ID != "t000002" {
		t.Fatalf("claim order: %s, %s", a.ID, b.ID)
	}
	// Release the oldest: it must be claimed again before t000003.
	if err := s.Release(a.ID, "w1", "putting it back"); err != nil {
		t.Fatal(err)
	}
	c, _ := s.TryClaim("w2")
	if c.ID != "t000001" {
		t.Fatalf("requeued task lost its place: got %s, want t000001", c.ID)
	}
	d, _ := s.TryClaim("w2")
	if d.ID != "t000003" {
		t.Fatalf("claim order after requeue: got %s, want t000003", d.ID)
	}
}

func TestCancelPendingAndWaitSettled(t *testing.T) {
	s := New(Options[int]{})
	a, _ := s.Submit(1)
	b, _ := s.Submit(2)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	doneCh := make(chan error, 1)
	go func() { doneCh <- s.WaitSettled(ctx) }()

	if st, err := s.Cancel(a.ID); err != nil || st != StateCancelled {
		t.Fatalf("cancel pending: %v %v", st, err)
	}
	got, _ := s.TryClaim("w1")
	if got.ID != b.ID {
		t.Fatalf("claimed %s, want %s (a cancelled)", got.ID, b.ID)
	}
	if st, err := s.Cancel(b.ID); err != nil || st != StateClaimed {
		t.Fatalf("cancel active: %v %v (want state unchanged)", st, err)
	}
	if got, _ := s.Get(b.ID); got.State != StateClaimed || !got.CancelRequested {
		t.Fatalf("cancelled active task: %+v, want claimed with the request flag", got)
	}
	if err := s.Finish(b.ID, "w1", "", nil); err != nil {
		t.Fatal(err)
	}
	if err := <-doneCh; err != nil {
		t.Fatalf("WaitSettled: %v", err)
	}
}

// TestCancelRequestNeverRequeues pins that the live requeue paths —
// Release and lease expiry — settle a cancel-requested task as cancelled
// instead of handing it to another worker.
func TestCancelRequestNeverRequeues(t *testing.T) {
	clk := newFakeClock()
	s := New(Options[int]{Lease: time.Minute, Now: clk.Now})
	released, _ := s.Submit(1)
	expired, _ := s.Submit(2)
	s.TryClaimBatch("w1", 2)
	for _, id := range []string{released.ID, expired.ID} {
		if _, err := s.Cancel(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Release(released.ID, "w1", "interrupted"); err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * time.Minute)
	if n := s.ExpireLeases(); n != 1 {
		t.Fatalf("expired %d leases, want 1", n)
	}
	for _, id := range []string{released.ID, expired.ID} {
		if got, _ := s.Get(id); got.State != StateCancelled || got.Worker != "" {
			t.Fatalf("%s: %+v, want cancelled", id, got)
		}
	}
	if got, ok := s.TryClaim("w2"); ok {
		t.Fatalf("claimed cancel-requested task %+v", got)
	}
}

// TestWaitTask pins the per-task wait: it returns on a transition of its
// own task only, and with ctx's error or ErrClosed otherwise.
func TestWaitTask(t *testing.T) {
	s := New(Options[int]{})
	mine, _ := s.Submit(1)
	other, _ := s.Submit(2)
	wait := func(ctx context.Context) chan error {
		ch := make(chan error, 1)
		go func() { ch <- s.WaitTask(ctx, mine.ID, StatePending) }()
		return ch
	}
	ch := wait(context.Background())
	// Another task's transition does not end the wait.
	if _, err := s.Cancel(other.ID); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-ch:
		t.Fatalf("WaitTask returned %v on another task's transition", err)
	case <-time.After(20 * time.Millisecond):
	}
	if got, _ := s.TryClaim("w1"); got.ID != mine.ID {
		t.Fatalf("claimed %s, want %s", got.ID, mine.ID)
	}
	if err := <-ch; err != nil {
		t.Fatalf("WaitTask after its own transition: %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	ch = wait(ctx) // mine is claimed now, not pending: returns at once
	if err := <-ch; err != nil {
		t.Fatalf("WaitTask on a task already past from: %v", err)
	}
	ch = make(chan error, 1)
	go func() { ch <- s.WaitTask(ctx, mine.ID, StateClaimed) }()
	cancel()
	if err := <-ch; !errors.Is(err, context.Canceled) {
		t.Fatalf("WaitTask after ctx cancel: %v", err)
	}
	go func() { ch <- s.WaitTask(context.Background(), mine.ID, StateClaimed) }()
	s.Close()
	if err := <-ch; !errors.Is(err, ErrClosed) {
		t.Fatalf("WaitTask after Close: %v", err)
	}
}

func TestJournalRecoveryGenericPayload(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")
	s, err := Open(path, Options[cellSpec]{})
	if err != nil {
		t.Fatal(err)
	}
	done, _ := s.Submit(cellSpec{Index: 0, Name: "done"})
	mid, _ := s.Submit(cellSpec{Index: 1, Name: "mid"})
	stop, _ := s.Submit(cellSpec{Index: 2, Name: "stop"})
	_, _ = s.Submit(cellSpec{Index: 3, Name: "queued"})
	s.TryClaim("w1") // done
	s.TryClaim("w1") // mid
	s.TryClaim("w1") // stop
	if err := s.Finish(done.ID, "w1", `{"ok":true}`, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.MarkRunning(mid.ID, "w1"); err != nil {
		t.Fatal(err)
	}
	// A cancel accepted for an executing task, before its worker acted on it.
	if st, err := s.Cancel(stop.ID); err != nil || st != StateClaimed {
		t.Fatalf("cancel active: %v %v", st, err)
	}
	// Simulated crash: no Close, reopen from the journal.
	s2, err := Open(path, Options[cellSpec]{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	d, _ := s2.Get(done.ID)
	if d.State != StateDone || d.Result != `{"ok":true}` || d.Payload.Name != "done" {
		t.Fatalf("terminal task not preserved: %+v", d)
	}
	m, _ := s2.Get(mid.ID)
	if m.State != StatePending || m.Note != "recovered after restart; requeued" {
		t.Fatalf("mid-flight task not requeued: %+v", m)
	}
	if c, _ := s2.Get(stop.ID); c.State != StateCancelled || c.Finished.IsZero() {
		t.Fatalf("cancel-requested task not settled as cancelled: %+v", c)
	}
	// Recovery claims resume oldest-first: mid (index 1) before queued;
	// the cancelled task is skipped.
	c1, _ := s2.TryClaim("w2")
	c2, _ := s2.TryClaim("w2")
	if c1.Payload.Index != 1 || c2.Payload.Index != 3 {
		t.Fatalf("recovered claim order: %d then %d", c1.Payload.Index, c2.Payload.Index)
	}
	if c3, ok := s2.TryClaim("w2"); ok {
		t.Fatalf("claimed %+v after the recoverable tasks", c3)
	}
	// New ids continue past the journaled sequence.
	fresh, _ := s2.Submit(cellSpec{Index: 4})
	if fresh.ID != "t000005" {
		t.Fatalf("fresh id: got %s, want t000005", fresh.ID)
	}
}

func TestJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")
	s, err := Open(path, Options[int]{})
	if err != nil {
		t.Fatal(err)
	}
	s.Submit(1)
	s.Submit(2)
	s.Close()
	// Crash mid-append: a torn, non-JSON final line.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"id":"t0000`)
	f.Close()
	s2, err := Open(path, Options[int]{})
	if err != nil {
		t.Fatalf("torn tail should be tolerated: %v", err)
	}
	defer s2.Close()
	if got := len(s2.List()); got != 2 {
		t.Fatalf("recovered %d tasks, want 2", got)
	}
}

func TestJournalMidFileCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")
	os.WriteFile(path, []byte(`{"journal_shards":1,"shard":0}`+"\nnot json\n"+`{"id":"t000001","state":"pending"}`+"\n"), 0o644)
	if _, err := Open(path, Options[int]{}); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("mid-file corruption should fail Open naming the line, got %v", err)
	}
}

// TestUnheaderedJournalRefused pins that a file whose first line is not
// a one-file journal header — a headerless journal from before headers
// existed, an empty file, or the first file of a journal an older build
// split across several — is refused by name, never replayed as empty or
// half-read, and is left untouched.
func TestUnheaderedJournalRefused(t *testing.T) {
	for name, tc := range map[string]struct{ content, want string }{
		"headerless records": {`{"id":"t000001","state":"done","result":"r"}` + "\n" + `{"id":"t000002","state":"pending"}` + "\n", "not a journal header"},
		"empty file":         {"", "not a journal header"},
		"two-file header":    {`{"journal_shards":2,"shard":0}` + "\n" + `{"id":"t000001","state":"pending"}` + "\n", "declares 2 files"},
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "journal.jsonl")
			if err := os.WriteFile(path, []byte(tc.content), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := Open(path, Options[int]{})
			if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want a refusal naming %s and %q, got %v", path, tc.want, err)
			}
			if data, _ := os.ReadFile(path); string(data) != tc.content {
				t.Fatalf("refused journal was rewritten: %q", data)
			}
		})
	}
}

// TestForeignRecordShapeRefused pins that a headered journal whose
// records are whole JSON but not this store's Task shape — what a build
// that journaled the payload under "config" left behind — is refused by
// file and line and left untouched, even when the foreign record is the
// last line (it is not a torn tail). Dropping the unknown key instead
// would replay every task with an empty payload and compact it away.
func TestForeignRecordShapeRefused(t *testing.T) {
	header := `{"journal_shards":1,"shard":0}` + "\n"
	foreign := `{"id":"t000001","state":"running","config":{"seed":1},"worker":"w1","attempts":1}` + "\n"
	for name, content := range map[string]string{
		"only record":    header + foreign,
		"before another": header + foreign + `{"id":"t000002","state":"pending","payload":{"seed":2}}` + "\n",
		"mistyped field": header + `{"id":"t000001","state":"pending","attempts":"one"}` + "\n",
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "journal.jsonl")
			if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := Open(path, Options[json.RawMessage]{})
			if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "line 2") {
				t.Fatalf("want a refusal naming %s line 2, got %v", path, err)
			}
			if data, _ := os.ReadFile(path); string(data) != content {
				t.Fatalf("refused journal was rewritten: %q", data)
			}
		})
	}
}

// TestClosedStoreRejectsMutations pins that every mutating entry point
// answers ErrClosed after Close instead of changing tasks and appending
// to a closed journal.
func TestClosedStoreRejectsMutations(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	s, err := Open(path, Options[int]{})
	if err != nil {
		t.Fatal(err)
	}
	s.Submit(1)
	s.Submit(2)
	held, ok := s.TryClaim("w1")
	if !ok {
		t.Fatal("claim failed")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	before, _ := os.ReadFile(path)

	if _, ok := s.TryClaim("w1"); ok {
		t.Error("TryClaim succeeded on a closed store")
	}
	if got := s.TryClaimBatch("w1", 2); len(got) != 0 {
		t.Errorf("TryClaimBatch claimed %d tasks on a closed store", len(got))
	}
	if n := s.ExpireLeases(); n != 0 {
		t.Errorf("ExpireLeases requeued %d tasks on a closed store", n)
	}
	for name, err := range map[string]error{
		"HeartbeatBatch":  s.HeartbeatBatch("w1", []string{held.ID})[0],
		"MarkRunning":     s.MarkRunning(held.ID, "w1"),
		"MarkPaused":      s.MarkPaused(held.ID, "w1"),
		"Release":         s.Release(held.ID, "w1", "late"),
		"Finish":          s.Finish(held.ID, "w1", "late", nil),
		"FinishCancelled": s.FinishCancelled(held.ID, "w1", "late"),
		"FinishBatch":     s.FinishBatch("w1", []FinishItem{{ID: held.ID, Result: "late"}})[0],
	} {
		if !errors.Is(err, ErrClosed) {
			t.Errorf("%s after Close: got %v, want ErrClosed", name, err)
		}
	}
	if _, err := s.Cancel("t000002"); !errors.Is(err, ErrClosed) {
		t.Errorf("Cancel after Close: got %v, want ErrClosed", err)
	}
	if _, err := s.Submit(3); !errors.Is(err, ErrClosed) {
		t.Errorf("Submit after Close: got %v, want ErrClosed", err)
	}
	if got, _ := s.Get(held.ID); got.State != StateClaimed || got.Worker != "w1" {
		t.Errorf("task mutated after Close: %+v", got)
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(before, after) {
		t.Error("journal changed after Close")
	}
}

// recordLines counts the task records in one journal file (every line
// after the journal header).
func recordLines(t *testing.T, path string) int {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Count(string(data), "\n") - 1
}

func TestCompactionAndMetrics(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")
	reg := obs.NewRegistry()
	s, err := Open(path, Options[int]{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	task, _ := s.Submit(5)
	s.TryClaim("w1")
	s.MarkRunning(task.ID, "w1")
	s.Finish(task.ID, "w1", "r", nil)
	s.Close()
	// Four transitions → four journal lines before compaction.
	if lines := recordLines(t, path); lines != 4 {
		t.Fatalf("journal lines before compaction: got %d, want 4", lines)
	}
	if v := reg.Counter("distwork_journal_compactions_total").Value(); v != 1 {
		t.Fatalf("compactions after first open: got %v, want 1", v)
	}
	reg2 := obs.NewRegistry()
	s2, err := Open(path, Options[int]{Metrics: reg2})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if lines := recordLines(t, path); lines != 1 {
		t.Fatalf("journal lines after compaction: got %d, want 1", lines)
	}
	if v := reg2.Counter("distwork_journal_compactions_total").Value(); v != 1 {
		t.Fatalf("compactions on reopen: got %v, want 1", v)
	}
	if v := reg2.Counter("distwork_journal_errors_total").Value(); v != 0 {
		t.Fatalf("journal errors: got %v, want 0", v)
	}
}

// TestJournalErrorCounter pins that a failed journal write latches the
// error and increments <prefix>_journal_errors_total exactly once.
func TestJournalErrorCounter(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")
	reg := obs.NewRegistry()
	s, err := Open(path, Options[int]{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	s.Submit(1)
	// Yank the file descriptor out from under the journal: subsequent
	// fsyncs fail, the first failure latches and is counted.
	s.journal.mu.Lock()
	s.journal.f.Close()
	s.journal.mu.Unlock()
	s.Submit(2)
	s.Submit(3)
	if v := reg.Counter("distwork_journal_errors_total").Value(); v != 1 {
		t.Fatalf("journal errors: got %v, want 1 (latched once)", v)
	}
	if err := s.Close(); err == nil {
		t.Fatal("Close should surface the latched journal error")
	}
}

func TestMetricNamesParameterized(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Options[int]{Metrics: reg, MetricPrefix: "sweep"})
	task, _ := s.Submit(1)
	s.TryClaim("w1")
	s.Finish(task.ID, "w1", "", nil)
	var buf strings.Builder
	reg.WritePrometheus(&buf)
	text := buf.String()
	for _, want := range []string{
		`sweep_tasks{state="done"} 1`,
		`sweep_tasks_submitted_total 1`,
		`sweep_task_claims_total 1`,
		`sweep_task_steals_total 0`,
		`sweep_tasks_finished_total{state="done"} 1`,
		`sweep_journal_compactions_total 0`,
		`sweep_journal_errors_total 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if _, err := obs.ValidateExposition(strings.NewReader(text)); err != nil {
		t.Fatalf("invalid exposition: %v", err)
	}
}

func TestPoolRunsAndSettles(t *testing.T) {
	s := New(Options[int]{})
	var mu sync.Mutex
	ran := map[int]bool{}
	pool := NewPool(s, 3, func(ctx context.Context, st *Store[int], task Task[int]) (string, error) {
		mu.Lock()
		ran[task.Payload] = true
		mu.Unlock()
		if task.Payload == 2 {
			return "", fmt.Errorf("boom %d", task.Payload)
		}
		return fmt.Sprintf("r%d", task.Payload), nil
	})
	for i := 0; i < 5; i++ {
		s.Submit(i)
	}
	ctx, cancel := context.WithCancel(context.Background())
	pool.Start(ctx)
	waitCtx, waitCancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer waitCancel()
	if err := s.WaitSettled(waitCtx); err != nil {
		t.Fatalf("WaitSettled: %v", err)
	}
	cancel()
	pool.Wait()
	counts := s.Counts()
	if counts[StateDone] != 4 || counts[StateFailed] != 1 {
		t.Fatalf("counts: %+v", counts)
	}
	if len(ran) != 5 {
		t.Fatalf("ran %d tasks, want 5", len(ran))
	}
}

func TestPoolInterruption(t *testing.T) {
	s := New(Options[int]{})
	started := make(chan struct{})
	pool := NewPool(s, 1, func(ctx context.Context, st *Store[int], task Task[int]) (string, error) {
		close(started)
		<-ctx.Done()
		return "", fmt.Errorf("stopped at step 3: %w", ErrInterrupted)
	})
	task, _ := s.Submit(1)
	ctx, cancel := context.WithCancel(context.Background())
	pool.Start(ctx)
	<-started
	cancel()
	pool.Wait()
	got, _ := s.Get(task.ID)
	if got.State != StatePending {
		t.Fatalf("interrupted task state: %s, want pending", got.State)
	}
	if got.Note != "stopped at step 3: distwork: interrupted by shutdown" {
		t.Fatalf("interrupted note: %q", got.Note)
	}
}

func TestConcurrentClaimExactlyOnce(t *testing.T) {
	s := New(Options[int]{})
	const n = 50
	for i := 0; i < n; i++ {
		s.Submit(i)
	}
	var mu sync.Mutex
	claimed := map[string]int{}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("w%d", w)
			for {
				task, ok := s.TryClaim(name)
				if !ok {
					return
				}
				mu.Lock()
				claimed[task.ID]++
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if len(claimed) != n {
		t.Fatalf("claimed %d distinct tasks, want %d", len(claimed), n)
	}
	for id, c := range claimed {
		if c != 1 {
			t.Fatalf("task %s claimed %d times", id, c)
		}
	}
}
