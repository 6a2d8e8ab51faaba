package httpapi

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/distwork"
	"repro/internal/obs"
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

	// A small fleet of real workers drains the store concurrently.
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			_, err := distwork.Work(ctx, client, name, 2, func(context.Context, distwork.Task[leasePayload]) (string, error) {
				return "ok", nil
			})
			if err != nil {
				t.Errorf("worker %s: %v", name, err)
			}
		}(string(rune('a' + w)))
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

// TestClaimBatchCap: a claim asking for more than MaxClaimBatch tasks is
// refused with 400 and claims nothing.
func TestClaimBatchCap(t *testing.T) {
	store, client := newLeaseFixture(t, time.Minute)
	for i := 0; i < 3; i++ {
		if _, err := store.Submit(leasePayload{Index: i}); err != nil {
			t.Fatal(err)
		}
	}
	tasks, _, _, err := client.ClaimBatch(context.Background(), "w", 1<<30)
	var st *LeaseStatusError
	if !asLeaseStatus(err, &st) || st.Status != http.StatusBadRequest {
		t.Fatalf("claim-batch max 1<<30: %d tasks, err %v; want HTTP 400", len(tasks), err)
	}
	for _, task := range store.List() {
		if task.State != distwork.StatePending {
			t.Errorf("task %s is %v after a refused claim, want pending", task.ID, task.State)
		}
	}
	if tasks, _, _, err := client.ClaimBatch(context.Background(), "w", MaxClaimBatch); err != nil || len(tasks) != 3 {
		t.Errorf("claim-batch at the cap: %d tasks, err %v; want all 3", len(tasks), err)
	}
}

// TestClaimBatchRejectsUnusableLease: tasks handed out under a lease no
// worker can heartbeat within are an error naming the field, not a
// duration for a ticker to panic on. An empty claim carries no lease to
// honour and passes.
func TestClaimBatchRejectsUnusableLease(t *testing.T) {
	var body string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(body))
	}))
	defer srv.Close()
	client := &LeaseClient[leasePayload]{Base: srv.URL, HTTP: srv.Client()}
	const task = `{"id":"t000001","state":"claimed","worker":"w"}`
	for _, secs := range []string{"0", "-5", "1e-12"} {
		body = `{"tasks":[` + task + `],"lease_seconds":` + secs + `}`
		tasks, _, lease, err := client.ClaimBatch(context.Background(), "w", 1)
		if err == nil || !strings.Contains(err.Error(), "lease_seconds") {
			t.Errorf("lease_seconds %s: got %d tasks, lease %v, err %v; want an error naming lease_seconds", secs, len(tasks), lease, err)
		}
		// The loop a worker runs must end on it too, without ever ticking.
		if _, err := distwork.Work(context.Background(), client, "w", 1, nil); err == nil {
			t.Errorf("lease_seconds %s: Work went on", secs)
		}
	}
	body = `{"tasks":[],"settled":true,"lease_seconds":0}`
	if _, settled, _, err := client.ClaimBatch(context.Background(), "w", 1); err != nil || !settled {
		t.Errorf("empty settled claim with lease 0: settled=%v err=%v", settled, err)
	}
}

// TestWorkOverHTTP runs two real worker loops against the lease API on a
// lease shorter than a cell, so cells survive only by the loop's
// heartbeats. One cell fails, and one worker is interrupted mid-cell:
// the cell it held is released and re-claimed (a steal) by the survivor,
// and every task settles exactly once.
func TestWorkOverHTTP(t *testing.T) {
	const (
		n     = 7
		lease = 200 * time.Millisecond
		cell  = 300 * time.Millisecond
	)
	reg := obs.NewRegistry()
	store := distwork.New(distwork.Options[leasePayload]{Lease: lease, Metrics: reg})
	defer store.Close()
	mux := http.NewServeMux()
	(&LeaseAPI[leasePayload]{Store: store}).Register(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	client := &LeaseClient[leasePayload]{Base: srv.URL, HTTP: srv.Client()}
	for i := 0; i < n; i++ {
		if _, err := store.Submit(leasePayload{Index: i}); err != nil {
			t.Fatal(err)
		}
	}

	started := make(chan struct{}, n) // one send per cell started
	run := func(ctx context.Context, task distwork.Task[leasePayload]) (string, error) {
		started <- struct{}{}
		select {
		case <-ctx.Done():
			return "", fmt.Errorf("interrupted in cell %d: %w", task.Payload.Index, distwork.ErrInterrupted)
		case <-time.After(cell):
		}
		if task.Payload.Index == 3 {
			return "", errors.New("cell 3 cannot be encoded")
		}
		return fmt.Sprintf("r%d", task.Payload.Index), nil
	}
	doomedCtx, interrupt := context.WithCancel(context.Background())
	defer interrupt()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i, ctx := range []context.Context{doomedCtx, context.Background()} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = distwork.Work(ctx, client, fmt.Sprintf("w%d", i), 2, run)
		}()
	}
	<-started
	<-started // both workers are mid-cell
	interrupt()
	wg.Wait()
	if !errors.Is(errs[0], context.Canceled) {
		t.Errorf("interrupted worker: %v, want context.Canceled", errs[0])
	}
	if errs[1] != nil {
		t.Errorf("surviving worker: %v", errs[1])
	}

	for _, task := range store.List() {
		want, wantErr := distwork.StateDone, ""
		if task.Payload.Index == 3 {
			want, wantErr = distwork.StateFailed, "cell 3 cannot be encoded"
		}
		if task.State != want || task.Error != wantErr {
			t.Errorf("task %s (cell %d): %s %q, want %s %q", task.ID, task.Payload.Index, task.State, task.Error, want, wantErr)
		}
		if task.State == distwork.StateDone && task.Result != fmt.Sprintf("r%d", task.Payload.Index) {
			t.Errorf("task %s result %q", task.ID, task.Result)
		}
	}
	settled := reg.Counter(`distwork_tasks_finished_total{state="done"}`).Value() +
		reg.Counter(`distwork_tasks_finished_total{state="failed"}`).Value()
	if settled != n {
		t.Errorf("%d settlements for %d tasks", settled, n)
	}
	if v := reg.Counter("distwork_task_steals_total").Value(); v < 1 {
		t.Errorf("steals = %d, want the interrupted worker's cells re-claimed", v)
	}
	if v := reg.Counter("distwork_task_releases_total").Value(); v < 2 {
		t.Errorf("releases = %d, want the interrupted cell and its unstarted batch-mate handed back", v)
	}
	if v := reg.Counter("distwork_heartbeats_total").Value(); v < 1 {
		t.Errorf("heartbeats = %d on a lease shorter than a cell", v)
	}
	if v := reg.Counter("distwork_lease_expirations_total").Value(); v != 0 {
		t.Errorf("%d leases lapsed although both workers heartbeat", v)
	}
}
