package distwork

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// claimReply is one scripted answer of a fakeLessor's ClaimBatch: the
// tasks it hands out (none: busy, not settled).
type claimReply struct {
	ids   []string
	lease time.Duration // 0 selects the fake's default lease
}

type released struct{ id, note string }

// fakeLessor is the Lessor a test scripts: claims are answered from a
// list (then "settled"), every other call is recorded in order.
type fakeLessor struct {
	mu         sync.Mutex
	claims     []claimReply
	noLease    bool // grant lease 0 instead of the default
	finish     func(items []FinishItem) ([]error, error)
	heartbeat  func(ids []string) ([]error, error)
	calls      []string // "claim", "heartbeat", "finish", "release" in call order
	heartbeats [][]string
	finished   [][]FinishItem
	released   []released
}

func (f *fakeLessor) ClaimBatch(ctx context.Context, worker string, max int) ([]Task[int], bool, time.Duration, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls = append(f.calls, "claim")
	lease := time.Minute
	if f.noLease {
		lease = 0
	}
	if len(f.claims) == 0 {
		return nil, true, lease, nil
	}
	r := f.claims[0]
	f.claims = f.claims[1:]
	if r.lease != 0 {
		lease = r.lease
	}
	tasks := make([]Task[int], len(r.ids))
	for i, id := range r.ids {
		tasks[i] = Task[int]{ID: id, State: StateClaimed, Worker: worker, Payload: i + 1}
	}
	return tasks, false, lease, nil
}

func (f *fakeLessor) HeartbeatBatch(ctx context.Context, worker string, ids []string) ([]error, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls = append(f.calls, "heartbeat")
	f.heartbeats = append(f.heartbeats, ids)
	if f.heartbeat != nil {
		return f.heartbeat(ids)
	}
	return make([]error, len(ids)), nil
}

func (f *fakeLessor) FinishBatch(ctx context.Context, worker string, items []FinishItem) ([]error, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls = append(f.calls, "finish")
	f.finished = append(f.finished, items)
	if f.finish != nil {
		return f.finish(items)
	}
	return make([]error, len(items)), nil
}

func (f *fakeLessor) Release(ctx context.Context, id, worker, note string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls = append(f.calls, "release")
	f.released = append(f.released, released{id, note})
	return nil
}

func (f *fakeLessor) count(call string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for _, c := range f.calls {
		if c == call {
			n++
		}
	}
	return n
}

// TestWork drives the loop against scripted lessors: what each runner
// outcome settles as, which finish errors are tolerated, and what an
// interrupt delivers and releases.
func TestWork(t *testing.T) {
	errBoom := errors.New("boom")
	ok := func(ctx context.Context, cancel func(), task Task[int]) (string, error) {
		return "r" + task.ID, nil
	}
	cases := []struct {
		name         string
		lessor       *fakeLessor
		run          func(ctx context.Context, cancel func(), task Task[int]) (string, error)
		wantFinished [][]FinishItem
		wantReleased []released
		wantDone     int
		wantErr      string // substring; "" = nil
		wantIs       error
	}{
		{
			name:   "a failing task settles failed and its batch-mates carry on",
			lessor: &fakeLessor{claims: []claimReply{{ids: []string{"a", "b", "c"}}}},
			run: func(ctx context.Context, cancel func(), task Task[int]) (string, error) {
				if task.ID == "b" {
					return "", errors.New("encoding result: unsupported value")
				}
				return "r" + task.ID, nil
			},
			wantFinished: [][]FinishItem{{{ID: "a", Result: "ra"}, {ID: "b", Error: "encoding result: unsupported value"}, {ID: "c", Result: "rc"}}},
			wantDone:     3,
		},
		{
			name: "a stolen task's finish is tolerated",
			lessor: &fakeLessor{
				claims: []claimReply{{ids: []string{"a", "b"}}, {ids: []string{"c"}}},
				finish: func(items []FinishItem) ([]error, error) {
					errs := make([]error, len(items))
					if items[0].ID == "a" {
						errs[0] = &NotOwnerError{ID: "a", State: StateClaimed, Worker: "thief", Claimant: "w"}
					}
					return errs, nil
				},
			},
			run:          ok,
			wantFinished: [][]FinishItem{{{ID: "a", Result: "ra"}, {ID: "b", Result: "rb"}}, {{ID: "c", Result: "rc"}}},
			wantDone:     2,
		},
		{
			name: "any other per-item finish error ends the worker",
			lessor: &fakeLessor{
				claims: []claimReply{{ids: []string{"a", "b"}}, {ids: []string{"c"}}},
				finish: func(items []FinishItem) ([]error, error) { return []error{nil, errBoom}, nil },
			},
			run:          ok,
			wantFinished: [][]FinishItem{{{ID: "a", Result: "ra"}, {ID: "b", Result: "rb"}}},
			wantDone:     1,
			wantErr:      "finishing task b: boom",
			wantIs:       errBoom,
		},
		{
			name: "a request-level finish error ends the worker",
			lessor: &fakeLessor{
				claims: []claimReply{{ids: []string{"a"}}, {ids: []string{"b"}}},
				finish: func(items []FinishItem) ([]error, error) { return nil, errBoom },
			},
			run:          ok,
			wantFinished: [][]FinishItem{{{ID: "a", Result: "ra"}}},
			wantErr:      "boom",
			wantIs:       errBoom,
		},
		{
			name:   "an interrupt delivers what was computed and releases the rest",
			lessor: &fakeLessor{claims: []claimReply{{ids: []string{"a", "b", "c", "d"}}, {ids: []string{"e"}}}},
			run: func(ctx context.Context, cancel func(), task Task[int]) (string, error) {
				if task.ID == "c" {
					cancel()
					<-ctx.Done()
					return "", fmt.Errorf("stopped at step 3: %w", ErrInterrupted)
				}
				return "r" + task.ID, nil
			},
			wantFinished: [][]FinishItem{{{ID: "a", Result: "ra"}, {ID: "b", Result: "rb"}}},
			wantReleased: []released{
				{"c", "stopped at step 3: distwork: interrupted by shutdown"},
				{"d", "worker w interrupted; requeued"},
			},
			wantDone: 2,
			wantErr:  "context canceled",
			wantIs:   context.Canceled,
		},
		{
			name:   "a task the runner settled itself is not settled again",
			lessor: &fakeLessor{claims: []claimReply{{ids: []string{"a"}}}},
			run: func(ctx context.Context, cancel func(), task Task[int]) (string, error) {
				return "", fmt.Errorf("cancelled by request: %w", ErrFinished)
			},
		},
		{
			name:   "an empty settled claim is a clean exit",
			lessor: &fakeLessor{},
			run:    ok,
		},
		{
			name:   "a non-positive lease is refused before anything runs",
			lessor: &fakeLessor{noLease: true, claims: []claimReply{{ids: []string{"a", "b"}}}},
			run: func(ctx context.Context, cancel func(), task Task[int]) (string, error) {
				t.Errorf("ran %s under a lease that cannot be renewed", task.ID)
				return "", nil
			},
			wantErr: "non-positive lease",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			done, err := Work(ctx, tc.lessor, "w", 4, func(ctx context.Context, task Task[int]) (string, error) {
				return tc.run(ctx, cancel, task)
			})
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("err = %v, want nil", err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("err = %v, want one containing %q", err, tc.wantErr)
			case tc.wantIs != nil && !errors.Is(err, tc.wantIs):
				t.Fatalf("err = %v, want errors.Is %v", err, tc.wantIs)
			}
			if done != tc.wantDone {
				t.Errorf("settled %d tasks, want %d", done, tc.wantDone)
			}
			if !reflect.DeepEqual(tc.lessor.finished, tc.wantFinished) {
				t.Errorf("finished %+v\n    want %+v", tc.lessor.finished, tc.wantFinished)
			}
			if !reflect.DeepEqual(tc.lessor.released, tc.wantReleased) {
				t.Errorf("released %+v\n    want %+v", tc.lessor.released, tc.wantReleased)
			}
			if n := tc.lessor.count("heartbeat"); n != 0 {
				t.Errorf("%d heartbeats under a one-minute lease", n)
			}
		})
	}
}

// TestWorkBacksOffOnEmptyClaim: an empty claim that is not settled is
// retried after the back-off, not spun on and not taken as the end.
func TestWorkBacksOffOnEmptyClaim(t *testing.T) {
	l := &fakeLessor{claims: []claimReply{{}, {ids: []string{"a"}}}}
	start := time.Now()
	done, err := Work(context.Background(), l, "w", 1, func(ctx context.Context, task Task[int]) (string, error) {
		return "r", nil
	})
	if err != nil || done != 1 {
		t.Fatalf("Work = %d, %v; want 1 task and no error", done, err)
	}
	if took := time.Since(start); took < 250*time.Millisecond {
		t.Errorf("retried an empty claim after %v, want the 250ms back-off first", took)
	}
	if n := l.count("claim"); n != 3 {
		t.Errorf("%d claims, want 3 (empty, one task, settled)", n)
	}
}

// TestWorkHeartbeatsHeldBatch: while a batch runs, every heartbeat names
// exactly that batch; once it is settled nothing is renewed, even while
// the worker idles on its next claim.
func TestWorkHeartbeatsHeldBatch(t *testing.T) {
	const lease = 30 * time.Millisecond
	l := &fakeLessor{claims: []claimReply{{ids: []string{"a", "b"}, lease: lease}, {lease: lease}}}
	done, err := Work(context.Background(), l, "w", 2, func(ctx context.Context, task Task[int]) (string, error) {
		// Hold each task until the lessor has seen two more renewals.
		for want := l.count("heartbeat") + 2; l.count("heartbeat") < want; {
			time.Sleep(time.Millisecond)
		}
		return "r", nil
	})
	if err != nil || done != 2 {
		t.Fatalf("Work = %d, %v; want 2 tasks and no error", done, err)
	}
	if len(l.heartbeats) < 4 {
		t.Fatalf("%d heartbeats, want at least 4", len(l.heartbeats))
	}
	for _, ids := range l.heartbeats {
		if !reflect.DeepEqual(ids, []string{"a", "b"}) {
			t.Errorf("heartbeat named %v, want the held batch [a b]", ids)
		}
	}
	// The second claim came back empty, so the worker sat out a back-off
	// of many heartbeat intervals holding nothing.
	settledAt := -1
	for i, c := range l.calls {
		if c == "finish" {
			settledAt = i
		}
		if c == "heartbeat" && settledAt >= 0 {
			t.Errorf("heartbeat after the batch was settled (call %d of %v)", i, l.calls)
		}
	}
}

// TestWorkRenewalFailureIsRetried: a renewal the lessor could not be
// reached for neither ends the worker nor stops renewal — the next tick
// tries again, and a lessor that is really gone fails the finish.
func TestWorkRenewalFailureIsRetried(t *testing.T) {
	l := &fakeLessor{
		claims:    []claimReply{{ids: []string{"a"}, lease: 15 * time.Millisecond}},
		heartbeat: func(ids []string) ([]error, error) { return nil, errors.New("connection refused") },
	}
	done, err := Work(context.Background(), l, "w", 1, func(ctx context.Context, task Task[int]) (string, error) {
		for l.count("heartbeat") < 3 {
			time.Sleep(time.Millisecond)
		}
		return "r", nil
	})
	if err != nil || done != 1 {
		t.Fatalf("Work = %d, %v; want the task settled and no error", done, err)
	}
}

// TestWorkOverStore runs the loop against a real store in batches: the
// in-process lessor blocks instead of polling, a failed task does not
// stop its batch-mates, and an interrupt returns the never-started tasks
// to pending at once.
func TestWorkOverStore(t *testing.T) {
	s := New(Options[int]{})
	for i := 0; i < 6; i++ {
		s.Submit(i)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done, err := Work(ctx, storeLessor[int]{s}, "w", 4, func(ctx context.Context, task Task[int]) (string, error) {
		switch task.Payload {
		case 1:
			return "", errors.New("boom 1")
		case 4: // first task of the second batch
			cancel()
			return "", ErrInterrupted
		}
		return fmt.Sprintf("r%d", task.Payload), nil
	})
	if !errors.Is(err, context.Canceled) || done != 4 {
		t.Fatalf("Work = %d, %v; want 4 tasks and context.Canceled", done, err)
	}
	counts := s.Counts()
	if counts[StateDone] != 3 || counts[StateFailed] != 1 || counts[StatePending] != 2 {
		t.Fatalf("counts: %+v, want 3 done, 1 failed, 2 pending", counts)
	}
	for _, want := range []struct{ id, note string }{
		{"t000005", "distwork: interrupted by shutdown"},
		{"t000006", "worker w interrupted; requeued"},
	} {
		if got, _ := s.Get(want.id); got.State != StatePending || got.Note != want.note {
			t.Errorf("%s: state %s note %q, want pending with note %q", want.id, got.State, got.Note, want.note)
		}
	}
	if got, _ := s.Get("t000002"); got.Error != "boom 1" {
		t.Errorf("failed task error %q, want boom 1", got.Error)
	}
}
