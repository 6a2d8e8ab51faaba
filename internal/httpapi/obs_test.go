package httpapi

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/jobqueue"
	"repro/internal/obs"
)

// TestMetricsEndpoint runs a job to completion and checks that /metrics
// serves a valid Prometheus exposition carrying all three instrumented
// layers: the job queue, the HTTP API, and the simulation kernel.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := testServer(t, "", 1)
	id := submit(t, ts, fastConfigDoc)
	waitState(t, ts, id, jobqueue.StateDone)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := obs.ValidateExposition(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("invalid exposition: %v\n%s", err, body)
	}
	text := string(body)
	for _, family := range []string{
		// jobqueue layer
		"elastisimd_tasks", "elastisimd_tasks_submitted_total", "elastisimd_journal_fsync_seconds",
		"elastisimd_workers", "elastisimd_workers_busy",
		// http layer
		"elastisimd_http_requests_total", "elastisimd_http_request_seconds",
		"elastisimd_sse_subscribers", "elastisimd_active_runs",
		// simulation layer
		"elastisim_sessions_started_total", "elastisim_sim_events_total",
	} {
		if !stats.HasFamily(family) {
			t.Errorf("exposition missing family %q (families: %v)", family, stats.SortedFamilies())
		}
	}
	if !strings.Contains(text, `elastisimd_tasks_finished_total{state="done"} 1`) {
		t.Errorf("finished counter missing:\n%s", text)
	}
	if !strings.Contains(text, `elastisimd_http_requests_total{route="POST /v1/sessions",code="202"} 1`) {
		t.Errorf("per-route request counter missing:\n%s", text)
	}
}

// TestHealthProbes pins the probe contract: healthz is liveness and
// always 200; readyz flips to 503 the moment the drain begins.
func TestHealthProbes(t *testing.T) {
	s, ts := testServer(t, "", 1)

	if code, body := fetch(t, ts, "/healthz"); code != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	if code, _ := fetch(t, ts, "/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz before drain = %d, want 200", code)
	}
	s.SetDraining()
	if code, body := fetch(t, ts, "/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(string(body), "draining") {
		t.Fatalf("/readyz during drain = %d %q, want 503 draining", code, body)
	}
	// Liveness is unaffected: the process is healthy, just not accepting.
	if code, _ := fetch(t, ts, "/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz during drain = %d, want 200", code)
	}
}

// TestRequestIDEcho pins that every response carries X-Request-ID: a
// generated one by default, the caller's verbatim when provided, and on
// the SSE stream the header arrives before the first event.
func TestRequestIDEcho(t *testing.T) {
	_, ts := testServer(t, "", 1)
	id := submit(t, ts, fastConfigDoc)

	resp, err := http.Get(ts.URL + "/v1/sessions")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("X-Request-ID") == "" {
		t.Error("list response has no X-Request-ID")
	}

	req, _ := http.NewRequest("GET", ts.URL+"/v1/sessions/"+id, nil)
	req.Header.Set("X-Request-ID", "caller-chosen-7")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "caller-chosen-7" {
		t.Errorf("caller request id not echoed: got %q", got)
	}

	// SSE: the header must be set before streaming begins.
	sseResp, err := http.Get(ts.URL + "/v1/sessions/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer sseResp.Body.Close()
	if sseResp.Header.Get("X-Request-ID") == "" {
		t.Error("SSE response has no X-Request-ID")
	}
	if ct := sseResp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("SSE content type through middleware = %q", ct)
	}
	// The stream still works through the instrumented writer: the fast job
	// settles, so a "done" event must arrive.
	sc := bufio.NewScanner(sseResp.Body)
	deadline := time.AfterFunc(30*time.Second, func() { sseResp.Body.Close() })
	defer deadline.Stop()
	seenDone := false
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "event: done") {
			seenDone = true
			break
		}
	}
	if !seenDone {
		t.Fatal("no done event through instrumented SSE stream")
	}
}

// TestAccessLog pins the structured access log: one JSON line per
// request with route, status, latency, and the same request id the
// client saw.
func TestAccessLog(t *testing.T) {
	var mu syncBuffer
	s, ts := testServer(t, "", 1)
	s.SetAccessLog(&mu)

	req, _ := http.NewRequest("GET", ts.URL+"/v1/sessions", nil)
	req.Header.Set("X-Request-ID", "log-probe-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if code, _ := fetch(t, ts, "/v1/sessions/j999999"); code != http.StatusNotFound {
		t.Fatalf("probe fetch = %d", code)
	}

	lines := strings.Split(strings.TrimSpace(mu.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("access log has %d lines, want 2:\n%s", len(lines), mu.String())
	}
	var rec struct {
		ID     string  `json:"id"`
		Route  string  `json:"route"`
		Status int     `json:"status"`
		Millis float64 `json:"ms"`
		Path   string  `json:"path"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("access line not JSON: %v: %s", err, lines[0])
	}
	if rec.ID != "log-probe-1" || rec.Route != "GET /v1/sessions" || rec.Status != 200 {
		t.Errorf("first access line = %+v", rec)
	}
	if err := json.Unmarshal([]byte(lines[1]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Status != 404 || rec.Route != "GET /v1/sessions/{id}" || rec.Path != "/v1/sessions/j999999" {
		t.Errorf("second access line = %+v", rec)
	}
}

// syncBuffer is an access-log sink safe to read after the requests
// completed (the server serializes writes; the test reads only after).
type syncBuffer struct{ bytes.Buffer }

// TestStalledSSESubscriber pins the isolation contract for slow
// consumers: a subscriber that opens the progress stream and never reads
// a byte must not stall the worker executing the job, other subscribers,
// or job settlement. Run under -race in the service e2e CI step.
func TestStalledSSESubscriber(t *testing.T) {
	_, ts := testServer(t, "", 1)
	id := submit(t, ts, slowConfigDoc)
	waitState(t, ts, id, jobqueue.StateRunning)

	// The stalled client: a raw TCP connection that sends the request and
	// then never reads, so the server-side writes back up once the kernel
	// socket buffer fills.
	addr := strings.TrimPrefix(ts.URL, "http://")
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "GET /v1/sessions/%s/events HTTP/1.1\r\nHost: %s\r\nAccept: text/event-stream\r\n\r\n", id, addr)

	// A healthy subscriber on the same run must keep receiving progress
	// and observe settlement.
	resp, err := http.Get(ts.URL + "/v1/sessions/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	events := make(chan string, 64)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if line := sc.Text(); strings.HasPrefix(line, "event: ") {
				events <- strings.TrimPrefix(line, "event: ")
			}
		}
		close(events)
	}()
	sawProgress, sawDone := false, false
	deadline := time.After(60 * time.Second)
	for !sawDone {
		select {
		case ev, ok := <-events:
			if !ok {
				t.Fatal("healthy subscriber's stream closed before done")
			}
			switch ev {
			case "progress":
				sawProgress = true
			case "done":
				sawDone = true
			}
		case <-deadline:
			t.Fatal("healthy subscriber starved while another subscriber stalled")
		}
	}
	if !sawProgress {
		t.Error("healthy subscriber saw no progress events")
	}
	// The worker was never blocked on the stalled client: the job settled.
	if v := getView(t, ts, id); v.State != jobqueue.StateDone {
		t.Errorf("job state = %s, want done", v.State)
	}
}
