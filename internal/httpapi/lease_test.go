package httpapi

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/distwork"
)

type leasePayload struct {
	Index int    `json:"index"`
	Name  string `json:"name"`
}

func newLeaseFixture(t *testing.T, lease time.Duration) (*distwork.Store[leasePayload], *LeaseClient[leasePayload]) {
	t.Helper()
	store := distwork.New(distwork.Options[leasePayload]{Lease: lease})
	t.Cleanup(func() { store.Close() })
	mux := http.NewServeMux()
	api := &LeaseAPI[leasePayload]{Store: store}
	api.Register(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return store, &LeaseClient[leasePayload]{Base: srv.URL, HTTP: srv.Client()}
}

// claimOne claims a batch of one — the protocol's single claim.
func claimOne(t *testing.T, client *LeaseClient[leasePayload], worker string) (task *distwork.Task[leasePayload], settled bool, lease time.Duration) {
	t.Helper()
	tasks, settled, lease, err := client.ClaimBatch(context.Background(), worker, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) > 1 {
		t.Fatalf("claimed %d tasks, asked for 1", len(tasks))
	}
	if len(tasks) == 1 {
		task = &tasks[0]
	}
	return task, settled, lease
}

// finishOne settles one task through finish-batch, flattening the
// request and item errors.
func finishOne(client *LeaseClient[leasePayload], worker string, item distwork.FinishItem) error {
	errs, err := client.FinishBatch(context.Background(), worker, []distwork.FinishItem{item})
	if err != nil {
		return err
	}
	return errs[0]
}

// TestLeaseRoundTrip drives a full claim/heartbeat/finish cycle over
// HTTP in batches of one and pins the wire-level settlement signal.
func TestLeaseRoundTrip(t *testing.T) {
	store, client := newLeaseFixture(t, time.Minute)
	ctx := context.Background()

	// An empty store is settled by definition (nothing outstanding), which
	// is also the worker's exit signal when it arrives after the grid
	// completed.
	task, settled, lease := claimOne(t, client, "w1")
	if task != nil || !settled {
		t.Fatalf("empty store claim: task=%v settled=%v", task, settled)
	}
	if lease != time.Minute {
		t.Fatalf("lease: got %v, want 1m", lease)
	}

	if _, err := store.Submit(leasePayload{Index: 0, Name: "a"}); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Submit(leasePayload{Index: 1, Name: "b"}); err != nil {
		t.Fatal(err)
	}

	task, settled, _ = claimOne(t, client, "w1")
	if task == nil || settled {
		t.Fatalf("claim: task=%v settled=%v", task, settled)
	}
	if task.Payload.Index != 0 || task.Payload.Name != "a" || task.Worker != "w1" {
		t.Fatalf("claimed task: %+v", task)
	}
	if errs, err := client.HeartbeatBatch(ctx, "w1", []string{task.ID}); err != nil || errs[0] != nil {
		t.Fatalf("heartbeat: %v %v", errs, err)
	}
	if err := finishOne(client, "w1", distwork.FinishItem{ID: task.ID, Result: `{"v":42}`}); err != nil {
		t.Fatal(err)
	}
	got, _ := store.Get(task.ID)
	if got.State != distwork.StateDone || got.Result != `{"v":42}` {
		t.Fatalf("after finish: %+v", got)
	}

	// Second task fails remotely.
	task2, _, _ := claimOne(t, client, "w1")
	if task2 == nil {
		t.Fatal("claim 2: no task")
	}
	if err := finishOne(client, "w1", distwork.FinishItem{ID: task2.ID, Error: "engine exploded"}); err != nil {
		t.Fatal(err)
	}
	got2, _ := store.Get(task2.ID)
	if got2.State != distwork.StateFailed || got2.Error != "engine exploded" {
		t.Fatalf("after failed finish: %+v", got2)
	}

	// Everything terminal: the next claim reports settled.
	if task, settled, _ = claimOne(t, client, "w1"); task != nil || !settled {
		t.Fatalf("settled claim: task=%v settled=%v", task, settled)
	}
}

// TestLeaseOwnershipStatusCodes pins the error mapping — 404 unknown
// task, 409 stale claim — as the release route's own status and as
// finish-batch item statuses.
func TestLeaseOwnershipStatusCodes(t *testing.T) {
	store, client := newLeaseFixture(t, time.Minute)
	ctx := context.Background()

	err := client.Release(ctx, "t999999", "w1", "")
	var st *LeaseStatusError
	if !asLeaseStatus(err, &st) || st.Status != http.StatusNotFound {
		t.Fatalf("unknown task: %v", err)
	}

	if _, err := store.Submit(leasePayload{Index: 0}); err != nil {
		t.Fatal(err)
	}
	task, _, _ := claimOne(t, client, "w1")
	if task == nil {
		t.Fatal("claim: no task")
	}
	err = client.Release(ctx, task.ID, "w2", "")
	if !asLeaseStatus(err, &st) || st.Status != http.StatusConflict {
		t.Fatalf("foreign release: %v", err)
	}
	err = finishOne(client, "w2", distwork.FinishItem{ID: task.ID, Result: "r"})
	if !asLeaseStatus(err, &st) || st.Status != http.StatusConflict {
		t.Fatalf("foreign finish: %v", err)
	}
	// The rightful owner still settles fine.
	if err := finishOne(client, "w1", distwork.FinishItem{ID: task.ID, Result: "r"}); err != nil {
		t.Fatal(err)
	}
}

// TestLeaseStealOverHTTP exercises the distributed work-stealing path: a
// worker claims over HTTP and dies silently; after lease expiry another
// worker claims the same task, and the dead worker's late finish is
// rejected with 409.
func TestLeaseStealOverHTTP(t *testing.T) {
	store, client := newLeaseFixture(t, 30*time.Millisecond)
	if _, err := store.Submit(leasePayload{Index: 0}); err != nil {
		t.Fatal(err)
	}
	task, _, _ := claimOne(t, client, "w-dead")
	if task == nil {
		t.Fatal("claim: no task")
	}
	// w-dead never heartbeats. Poll until the lease lapses and w-live
	// steals the task.
	deadline := time.Now().Add(5 * time.Second)
	var stolen *distwork.Task[leasePayload]
	for {
		if stolen, _, _ = claimOne(t, client, "w-live"); stolen != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("steal never happened")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if stolen.ID != task.ID || stolen.Attempts != 2 {
		t.Fatalf("stolen task: %+v", stolen)
	}
	// The dead worker wakes up and tries to finish: exactly-once
	// settlement rejects it.
	err := finishOne(client, "w-dead", distwork.FinishItem{ID: task.ID, Result: "stale"})
	var st *LeaseStatusError
	if !asLeaseStatus(err, &st) || st.Status != http.StatusConflict {
		t.Fatalf("stale finish: %v", err)
	}
	if err := finishOne(client, "w-live", distwork.FinishItem{ID: task.ID, Result: "fresh"}); err != nil {
		t.Fatal(err)
	}
	got, _ := store.Get(task.ID)
	if got.Result != "fresh" {
		t.Fatalf("result: %q, want the stealing worker's", got.Result)
	}
}

// TestLeaseRelease pins the graceful-release path and concurrent client
// safety under -race.
func TestLeaseRelease(t *testing.T) {
	store, client := newLeaseFixture(t, time.Minute)
	ctx := context.Background()
	const n = 12
	for i := 0; i < n; i++ {
		if _, err := store.Submit(leasePayload{Index: i}); err != nil {
			t.Fatal(err)
		}
	}
	task, _, _ := claimOne(t, client, "w1")
	if task == nil {
		t.Fatal("claim: no task")
	}
	if err := client.Release(ctx, task.ID, "w1", "shutting down"); err != nil {
		t.Fatal(err)
	}
	got, _ := store.Get(task.ID)
	if got.State != distwork.StatePending || got.Note != "shutting down" {
		t.Fatalf("after release: %+v", got)
	}

	// A small fleet drains the store concurrently.
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := string(rune('a' + w))
			for {
				tasks, settled, _, err := client.ClaimBatch(ctx, name, 2)
				if err != nil {
					t.Errorf("claim: %v", err)
					return
				}
				if len(tasks) == 0 {
					if settled {
						return
					}
					time.Sleep(time.Millisecond)
					continue
				}
				for _, task := range tasks {
					if err := finishOne(client, name, distwork.FinishItem{ID: task.ID, Result: "ok"}); err != nil {
						t.Errorf("finish: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	counts := store.Counts()
	if counts[distwork.StateDone] != n {
		t.Fatalf("done: %d, want %d (counts %v)", counts[distwork.StateDone], n, counts)
	}
}

func asLeaseStatus(err error, st **LeaseStatusError) bool {
	if err == nil {
		return false
	}
	e, ok := err.(*LeaseStatusError)
	if ok {
		*st = e
	}
	return ok
}

// TestBatchLeaseOverHTTP drives the batched wire protocol end to end:
// claim-batch hands out oldest-first, heartbeat-batch and finish-batch
// carry per-item outcomes, and a stolen cell's 409 rides alongside its
// batch-mates' successes without failing the request.
func TestBatchLeaseOverHTTP(t *testing.T) {
	store, client := newLeaseFixture(t, 40*time.Millisecond)
	ctx := context.Background()
	const n = 6
	for i := 0; i < n; i++ {
		if _, err := store.Submit(leasePayload{Index: i}); err != nil {
			t.Fatal(err)
		}
	}
	tasks, settled, lease, err := client.ClaimBatch(ctx, "w1", 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 4 || settled || lease != 40*time.Millisecond {
		t.Fatalf("claim-batch: %d tasks settled=%v lease=%v", len(tasks), settled, lease)
	}
	for i, task := range tasks {
		if task.Payload.Index != i || task.Worker != "w1" {
			t.Fatalf("batch order: task %d is %+v", i, task)
		}
	}
	ids := []string{tasks[0].ID, tasks[1].ID, "t999999"}
	errs, err := client.HeartbeatBatch(ctx, "w1", ids)
	if err != nil {
		t.Fatal(err)
	}
	if errs[0] != nil || errs[1] != nil {
		t.Fatalf("heartbeat own claims: %v", errs)
	}
	var st *LeaseStatusError
	if !asLeaseStatus(errs[2], &st) || st.Status != http.StatusNotFound {
		t.Fatalf("heartbeat unknown id: %v", errs[2])
	}
	// A request that names no worker is a 400 on every route, not a batch
	// of per-item ownership errors.
	_, _, _, claimErr := client.ClaimBatch(ctx, "", 1)
	_, hbErr := client.HeartbeatBatch(ctx, "", ids)
	_, finErr := client.FinishBatch(ctx, "", []distwork.FinishItem{{ID: tasks[0].ID, Result: "anonymous"}})
	relErr := client.Release(ctx, tasks[0].ID, "", "")
	for route, err := range map[string]error{"claim-batch": claimErr, "heartbeat-batch": hbErr, "finish-batch": finErr, "release": relErr} {
		if !asLeaseStatus(err, &st) || st.Status != http.StatusBadRequest {
			t.Fatalf("%s without a worker: %v, want HTTP 400", route, err)
		}
	}

	// Let every lease lapse; w2 steals the whole batch. w1's late batch
	// finish gets per-item 409s, w2's wins.
	deadline := time.Now().Add(5 * time.Second)
	var stolen []distwork.Task[leasePayload]
	for {
		store.ExpireLeases()
		stolen, _, _, err = client.ClaimBatch(ctx, "w2", 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(stolen) == n {
			break
		}
		// Partial steals go back so the next round claims all six at once.
		for _, task := range stolen {
			if err := client.Release(ctx, task.ID, "w2", "retry full batch"); err != nil {
				t.Fatal(err)
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("steal never happened (last saw %d tasks)", len(stolen))
		}
		time.Sleep(5 * time.Millisecond)
	}
	items := []distwork.FinishItem{
		{ID: tasks[0].ID, Result: "stale-0"},
		{ID: tasks[1].ID, Result: "stale-1"},
	}
	lateErrs, err := client.FinishBatch(ctx, "w1", items)
	if err != nil {
		t.Fatal(err)
	}
	for i, ierr := range lateErrs {
		if !asLeaseStatus(ierr, &st) || st.Status != http.StatusConflict {
			t.Fatalf("stale batch finish item %d: %v", i, ierr)
		}
	}
	var fresh []distwork.FinishItem
	for _, task := range stolen {
		fresh = append(fresh, distwork.FinishItem{ID: task.ID, Result: "fresh"})
	}
	fresh = append(fresh, distwork.FinishItem{ID: stolen[0].ID, Result: "dup"})
	freshErrs, err := client.FinishBatch(ctx, "w2", fresh)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if freshErrs[i] != nil {
			t.Fatalf("fresh batch finish item %d: %v", i, freshErrs[i])
		}
	}
	// The duplicate settle inside the same batch is rejected per item.
	if !asLeaseStatus(freshErrs[n], &st) || st.Status != http.StatusConflict {
		t.Fatalf("duplicate finish in batch: %v", freshErrs[n])
	}
	if !store.Settled() {
		t.Fatal("store should be settled")
	}
	got, _ := store.Get(tasks[0].ID)
	if got.Result != "fresh" {
		t.Fatalf("result: %q, want the stealing worker's", got.Result)
	}
	// Settled signal arrives on an empty batch claim.
	none, settled, _, err := client.ClaimBatch(ctx, "w3", 5)
	if err != nil || len(none) != 0 || !settled {
		t.Fatalf("settled claim-batch: %v %v %v", none, settled, err)
	}
}
