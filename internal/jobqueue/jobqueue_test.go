package jobqueue

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestFailAndCancel(t *testing.T) {
	q := New(Options{})
	a, _ := q.Submit(nil)
	b, _ := q.Submit(nil)

	// Pending cancel is immediate.
	if st, err := q.Cancel(b.ID); err != nil || st != StateCancelled {
		t.Fatalf("cancel pending: state=%s err=%v", st, err)
	}

	cl, _ := q.TryClaim("w")
	if cl.ID != a.ID {
		t.Fatalf("claimed %s, want %s (cancelled job must be skipped)", cl.ID, a.ID)
	}
	// Active cancel leaves the state for the worker to settle.
	if st, err := q.Cancel(a.ID); err != nil || st != StateClaimed {
		t.Fatalf("cancel active: state=%s err=%v", st, err)
	}
	if err := q.FinishCancelled(a.ID, "w", "partial"); err != nil {
		t.Fatal(err)
	}
	got, _ := q.Get(a.ID)
	if got.State != StateCancelled || got.Result != "partial" {
		t.Fatalf("cancelled job = %+v", got)
	}

	c, _ := q.Submit(nil)
	q.TryClaim("w")
	if err := q.Finish(c.ID, "w", "", errors.New("boom")); err != nil {
		t.Fatal(err)
	}
	if got, _ := q.Get(c.ID); got.State != StateFailed || got.Error != "boom" {
		t.Fatalf("failed job = %+v", got)
	}
}

// TestJournalRecovery pins the restart contract: done/failed/cancelled
// jobs survive with their results and are NOT re-run; jobs that were
// pending or mid-flight (claimed/running/paused) when the process died
// come back as pending and ARE re-run; new ids never collide with
// journaled ones.
func TestJournalRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")

	q1, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	done, _ := q1.Submit(json.RawMessage(`{"job":"done"}`))
	failed, _ := q1.Submit(json.RawMessage(`{"job":"failed"}`))
	running, _ := q1.Submit(json.RawMessage(`{"job":"running"}`))
	pending, _ := q1.Submit(json.RawMessage(`{"job":"pending"}`))

	q1.TryClaim("w")
	if err := q1.Finish(done.ID, "w", "artifacts/done", nil); err != nil {
		t.Fatal(err)
	}
	q1.TryClaim("w")
	if err := q1.Finish(failed.ID, "w", "", errors.New("exploded")); err != nil {
		t.Fatal(err)
	}
	q1.TryClaim("w")
	if err := q1.MarkRunning(running.ID, "w"); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash: no Close, no settlement of the running job.

	q2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Close()

	if got, _ := q2.Get(done.ID); got.State != StateDone || got.Result != "artifacts/done" {
		t.Fatalf("done job after recovery = %+v", got)
	}
	if got, _ := q2.Get(failed.ID); got.State != StateFailed || got.Error != "exploded" {
		t.Fatalf("failed job after recovery = %+v", got)
	}
	if got, _ := q2.Get(running.ID); got.State != StatePending || got.Worker != "" {
		t.Fatalf("running job after recovery = %+v (want requeued)", got)
	}
	if got, _ := q2.Get(pending.ID); got.State != StatePending {
		t.Fatalf("pending job after recovery = %+v", got)
	}
	// Config payloads survive.
	if got, _ := q2.Get(running.ID); string(got.Payload) != `{"job":"running"}` {
		t.Fatalf("config after recovery = %s", got.Payload)
	}

	// Exactly the two non-terminal jobs are claimable, in order.
	first, ok1 := q2.TryClaim("w2")
	second, ok2 := q2.TryClaim("w2")
	_, ok3 := q2.TryClaim("w2")
	if !ok1 || !ok2 || ok3 {
		t.Fatalf("claimable after recovery: %v %v %v, want true true false", ok1, ok2, ok3)
	}
	if first.ID != running.ID || second.ID != pending.ID {
		t.Fatalf("claim order after recovery: %s, %s", first.ID, second.ID)
	}

	// New ids continue past journaled ones.
	fresh, _ := q2.Submit(nil)
	if fresh.ID <= pending.ID {
		t.Fatalf("fresh id %s does not continue after %s", fresh.ID, pending.ID)
	}
}

// TestMultiFileJournalRefused pins that a daemon journal whose header
// declares several files — the layout older builds could write — is
// refused by name and left untouched, not replayed as a partial queue.
func TestMultiFileJournalRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	content := `{"journal_shards":2,"shard":0}` + "\n" + `{"id":"j000001","state":"pending","payload":{}}` + "\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(path, Options{})
	if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "declares 2 files") {
		t.Fatalf("want a refusal naming %s and its two files, got %v", path, err)
	}
	if data, _ := os.ReadFile(path); string(data) != content {
		t.Fatalf("refused journal was rewritten: %q", data)
	}
}

// TestClaimBlocksUntilSubmit pins the blocking ClaimBatch path used by
// idle pool workers.
func TestClaimBlocksUntilSubmit(t *testing.T) {
	q := New(Options{})
	got := make(chan Job, 1)
	go func() {
		js, err := q.ClaimBatch(context.Background(), "w", 1)
		if err != nil || len(js) != 1 {
			t.Errorf("ClaimBatch: %d jobs, err %v", len(js), err)
			return
		}
		got <- js[0]
	}()
	time.Sleep(20 * time.Millisecond) // let the claimer block
	want, _ := q.Submit(nil)
	select {
	case j := <-got:
		if j.ID != want.ID {
			t.Fatalf("claimed %s, want %s", j.ID, want.ID)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Claim did not wake on Submit")
	}

	// Claim respects context cancellation.
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := q.ClaimBatch(ctx, "w", 1)
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Claim did not wake on cancellation")
	}
}
