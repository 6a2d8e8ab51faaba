package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/distwork"
)

// The lease API is the HTTP face of a distwork store: remote workers
// claim tasks, heartbeat their leases, and return results over the same
// REST idiom as the session API. It is deliberately payload-generic —
// the sweep coordinator serves LeaseAPI[experiments.GridCell]; any
// future distributed consumer of the distwork core gets wire transport
// for free.
//
//	POST /v1/tasks/claim-batch     claim up to max pending tasks
//	POST /v1/tasks/heartbeat-batch renew the leases of ids
//	POST /v1/tasks/finish-batch    settle items (each done or failed)
//	POST /v1/tasks/{id}/release    return the task to pending
//	GET  /v1/tasks                 list tasks (operator visibility)
//
// Claims, heartbeats and settlements travel in batches; a worker that
// wants one task asks for a batch of one. The batch endpoints report
// per-item outcomes: the request itself is 200 as long as it parses, and
// each item carries its own status — 404 for an unknown task, 409 for a
// stale claim (the lease expired and another worker owns the task now —
// the loser's finish is rejected, exactly-once settlement) — so one
// stolen cell does not fail the other N-1 results travelling in the same
// request. Release answers with that status directly.

// LeaseAPI serves a distwork store's claim/heartbeat/finish lifecycle
// over HTTP.
type LeaseAPI[P any] struct {
	Store *distwork.Store[P]
}

// Register installs the lease routes on mux.
func (a *LeaseAPI[P]) Register(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/tasks/claim-batch", a.handleClaimBatch)
	mux.HandleFunc("POST /v1/tasks/heartbeat-batch", a.handleHeartbeatBatch)
	mux.HandleFunc("POST /v1/tasks/finish-batch", a.handleFinishBatch)
	mux.HandleFunc("POST /v1/tasks/{id}/release", a.handleRelease)
	mux.HandleFunc("GET /v1/tasks", a.handleList)
}

// leaseRequest is the body of every lease POST: the worker's name plus
// the fields of the route it is sent to.
type leaseRequest struct {
	Worker string                `json:"worker"`
	Max    int                   `json:"max,omitempty"`   // claim-batch
	IDs    []string              `json:"ids,omitempty"`   // heartbeat-batch
	Items  []distwork.FinishItem `json:"items,omitempty"` // finish-batch
	Note   string                `json:"note,omitempty"`  // release
}

// decodeLeaseRequest reads a lease request, answering 400 itself (and
// reporting false) when the body does not parse or names no worker.
func decodeLeaseRequest(w http.ResponseWriter, r *http.Request) (req leaseRequest, ok bool) {
	body, err := io.ReadAll(io.LimitReader(r.Body, 64<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading body: %v", err)
		return req, false
	}
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "parsing body: %v", err)
		return req, false
	}
	if req.Worker == "" {
		writeError(w, http.StatusBadRequest, "missing worker name")
		return req, false
	}
	return req, true
}

// claimBatchResponse carries the claimed tasks (possibly empty), whether
// the store has settled (every task terminal — the worker's signal to
// exit), and the lease the worker must heartbeat within.
type claimBatchResponse[P any] struct {
	Tasks        []distwork.Task[P] `json:"tasks"`
	Settled      bool               `json:"settled"`
	LeaseSeconds float64            `json:"lease_seconds"`
}

// batchItemStatus is one item's outcome inside a 200 batch response.
type batchItemStatus struct {
	Status int    `json:"status"`
	Error  string `json:"error,omitempty"`
}

type batchResponse struct {
	Results []batchItemStatus `json:"results"`
}

// leaseItemStatus maps distwork's ownership errors onto status codes.
func leaseItemStatus(err error) batchItemStatus {
	switch {
	case err == nil:
		return batchItemStatus{Status: http.StatusOK}
	case errors.Is(err, distwork.ErrNotFound):
		return batchItemStatus{Status: http.StatusNotFound, Error: err.Error()}
	case errors.Is(err, distwork.ErrNotOwner):
		return batchItemStatus{Status: http.StatusConflict, Error: err.Error()}
	default:
		return batchItemStatus{Status: http.StatusInternalServerError, Error: err.Error()}
	}
}

func writeBatchResponse(w http.ResponseWriter, errs []error) {
	resp := batchResponse{Results: make([]batchItemStatus, len(errs))}
	for i, err := range errs {
		resp.Results[i] = leaseItemStatus(err)
	}
	writeJSON(w, http.StatusOK, resp)
}

// MaxClaimBatch is the most tasks one claim-batch request may ask for.
// A larger max is refused with 400: one request could otherwise claim a
// whole grid and hold every cell under a single worker's lease.
const MaxClaimBatch = 1024

// handleClaimBatch hands the oldest pending tasks, up to max, to the
// asking worker. Expired leases are collected first (inside
// TryClaimBatch), so a crashed worker's tasks are stolen here by
// whichever worker polls next. An empty claim is not an error: the
// worker backs off and retries until settled says the whole task set is
// terminal.
func (a *LeaseAPI[P]) handleClaimBatch(w http.ResponseWriter, r *http.Request) {
	req, ok := decodeLeaseRequest(w, r)
	if !ok {
		return
	}
	if req.Max > MaxClaimBatch {
		writeError(w, http.StatusBadRequest, "max %d exceeds the claim cap %d", req.Max, MaxClaimBatch)
		return
	}
	resp := claimBatchResponse[P]{LeaseSeconds: a.Store.Lease().Seconds()}
	resp.Tasks = a.Store.TryClaimBatch(req.Worker, req.Max)
	if len(resp.Tasks) == 0 {
		resp.Settled = a.Store.Settled()
	}
	writeJSON(w, http.StatusOK, resp)
}

func (a *LeaseAPI[P]) handleHeartbeatBatch(w http.ResponseWriter, r *http.Request) {
	if req, ok := decodeLeaseRequest(w, r); ok {
		writeBatchResponse(w, a.Store.HeartbeatBatch(req.Worker, req.IDs))
	}
}

// handleFinishBatch settles many tasks in one request with per-item
// outcomes: a stolen task's 409 rides alongside its batch-mates' 200s.
func (a *LeaseAPI[P]) handleFinishBatch(w http.ResponseWriter, r *http.Request) {
	if req, ok := decodeLeaseRequest(w, r); ok {
		writeBatchResponse(w, a.Store.FinishBatch(req.Worker, req.Items))
	}
}

func (a *LeaseAPI[P]) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, a.Store.List())
}

func (a *LeaseAPI[P]) handleRelease(w http.ResponseWriter, r *http.Request) {
	req, ok := decodeLeaseRequest(w, r)
	if !ok {
		return
	}
	if st := leaseItemStatus(a.Store.Release(r.PathValue("id"), req.Worker, req.Note)); st.Status != http.StatusOK {
		writeError(w, st.Status, "%s", st.Error)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// LeaseClient is the worker-side counterpart of LeaseAPI: typed claim/
// heartbeat/finish/release calls against a coordinator's base URL — the
// distwork.Lessor that distwork.Work runs a remote worker over.
type LeaseClient[P any] struct {
	// Base is the coordinator's URL, e.g. "http://127.0.0.1:9180".
	Base string
}

// post sends a JSON body and decodes a JSON response into out (when
// non-nil). Non-2xx responses become errors carrying the server's
// message and an httpStatus the caller can switch on.
func (c *LeaseClient[P]) post(ctx context.Context, path string, body, out any) error {
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+path, bytes.NewReader(data))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		var e struct {
			Error string `json:"error"`
		}
		msg := string(raw)
		if json.Unmarshal(raw, &e) == nil && e.Error != "" {
			msg = e.Error
		}
		return &LeaseStatusError{Status: resp.StatusCode, Msg: msg}
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(raw, out)
}

// LeaseStatusError is a non-2xx lease API response.
type LeaseStatusError struct {
	Status int
	Msg    string
}

func (e *LeaseStatusError) Error() string {
	return fmt.Sprintf("lease api: HTTP %d: %s", e.Status, e.Msg)
}

// Is makes a 409 distwork.ErrNotOwner again, so distwork.Work tells a
// stolen task from a broken coordinator the same way as over a store.
func (e *LeaseStatusError) Is(target error) bool {
	return e.Status == http.StatusConflict && target == distwork.ErrNotOwner
}

// ClaimBatch asks the coordinator for up to max tasks in one round
// trip. An empty slice with settled=false means nothing is pending
// right now; settled=true means the task set is terminal. Tasks under a
// lease_seconds nobody can heartbeat within are an error.
func (c *LeaseClient[P]) ClaimBatch(ctx context.Context, worker string, max int) (tasks []distwork.Task[P], settled bool, lease time.Duration, err error) {
	var resp claimBatchResponse[P]
	if err := c.post(ctx, "/v1/tasks/claim-batch", leaseRequest{Worker: worker, Max: max}, &resp); err != nil {
		return nil, false, 0, err
	}
	lease = time.Duration(resp.LeaseSeconds * float64(time.Second))
	if len(resp.Tasks) > 0 && lease <= 0 {
		return nil, false, 0, fmt.Errorf("lease api: claim-batch: lease_seconds %v is not a positive duration", resp.LeaseSeconds)
	}
	return resp.Tasks, resp.Settled, lease, nil
}

// batchItemErrors converts a batch response into positional errors:
// nil for a 200 item, a *LeaseStatusError otherwise. A response whose
// length does not match n is a protocol error on every position.
func batchItemErrors(resp batchResponse, n int) []error {
	out := make([]error, n)
	if len(resp.Results) != n {
		for i := range out {
			out[i] = fmt.Errorf("lease api: batch response has %d results, want %d", len(resp.Results), n)
		}
		return out
	}
	for i, st := range resp.Results {
		if st.Status != http.StatusOK {
			out[i] = &LeaseStatusError{Status: st.Status, Msg: st.Error}
		}
	}
	return out
}

// HeartbeatBatch renews many leases in one request, returning one error
// slot per id (nil = renewed).
func (c *LeaseClient[P]) HeartbeatBatch(ctx context.Context, worker string, ids []string) ([]error, error) {
	var resp batchResponse
	if err := c.post(ctx, "/v1/tasks/heartbeat-batch", leaseRequest{Worker: worker, IDs: ids}, &resp); err != nil {
		return nil, err
	}
	return batchItemErrors(resp, len(ids)), nil
}

// FinishBatch settles many tasks in one request, returning one error
// slot per item (nil = settled; 409 = the task was stolen and the newer
// claim's result won).
func (c *LeaseClient[P]) FinishBatch(ctx context.Context, worker string, items []distwork.FinishItem) ([]error, error) {
	var resp batchResponse
	if err := c.post(ctx, "/v1/tasks/finish-batch", leaseRequest{Worker: worker, Items: items}, &resp); err != nil {
		return nil, err
	}
	return batchItemErrors(resp, len(items)), nil
}

// Release returns the task to pending with a note.
func (c *LeaseClient[P]) Release(ctx context.Context, id, worker, note string) error {
	return c.post(ctx, "/v1/tasks/"+id+"/release", leaseRequest{Worker: worker, Note: note}, nil)
}
