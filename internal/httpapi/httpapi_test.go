package httpapi

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"

	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/elastisim"
	"repro/internal/jobqueue"
	"repro/internal/obs"
)

// fastConfigDoc finishes in milliseconds — used wherever the test only
// needs a completed job.
const fastConfigDoc = `{
  "platform": {"name": "tiny", "nodes": [{"count": 8, "speed": "100G"}],
    "network": {"topology": "star", "link_bandwidth": "10G", "latency": 1e-6},
    "pfs": {"read_bandwidth": "40G", "write_bandwidth": "40G"}},
  "workload": {"name": "fast", "jobs": [
    {"name": "a", "type": "rigid", "submit_time": 0, "num_nodes": 2, "walltime": 10000,
     "phases": [{"tasks": [{"type": "compute", "flops": "1T / num_nodes"}]}]},
    {"name": "b", "type": "malleable", "submit_time": 5, "num_nodes_min": 1, "num_nodes_max": 4,
     "walltime": 10000,
     "phases": [{"name": "iter", "iterations": 20, "scheduling_point": true,
       "tasks": [{"type": "compute", "flops": "50G / num_nodes"},
                 {"type": "comm", "pattern": "allreduce", "bytes": "1M"}]}]},
    {"name": "c", "type": "moldable", "submit_time": 10, "num_nodes_min": 1, "num_nodes_max": 2,
     "phases": [{"tasks": [{"type": "compute", "flops": "200G / num_nodes"}]}]}
  ]},
  "algorithm": "adaptive"
}`

// slowConfigDoc produces enough events (tens of thousands) that control
// requests reliably land mid-run when the server steps in small chunks.
const slowConfigDoc = `{
  "platform": {"name": "tiny", "nodes": [{"count": 8, "speed": "100G"}],
    "network": {"topology": "star", "link_bandwidth": "10G", "latency": 1e-6},
    "pfs": {"read_bandwidth": "40G", "write_bandwidth": "40G"}},
  "workload": {"name": "slow", "jobs": [
    {"name": "grind0", "type": "rigid", "submit_time": 0, "num_nodes": 2, "walltime": 1e9,
     "phases": [{"name": "iter", "iterations": 4000,
       "tasks": [{"type": "compute", "flops": "10G / num_nodes"},
                 {"type": "comm", "pattern": "allreduce", "bytes": "1M"}]}]},
    {"name": "grind1", "type": "rigid", "submit_time": 0, "num_nodes": 2, "walltime": 1e9,
     "phases": [{"name": "iter", "iterations": 4000,
       "tasks": [{"type": "compute", "flops": "10G / num_nodes"},
                 {"type": "comm", "pattern": "allreduce", "bytes": "1M"}]}]}
  ]},
  "algorithm": "fcfs"
}`

// testServer wires a queue, a Server, a worker pool, and an httptest
// frontend, torn down in reverse order on cleanup.
func testServer(t *testing.T, journal string, workers int) (*Server, *httptest.Server) {
	t.Helper()
	// Observability is attached in every test: the instrumented paths run
	// under the full e2e suite (including -race), and the lifecycle test's
	// byte-identical result check doubles as the service-level pin that
	// metrics collection does not perturb simulations.
	qopts := jobqueue.Options{Metrics: obs.NewRegistry(), Flight: obs.NewFlightRecorder(256)}
	if journal == "" {
		journal = filepath.Join(t.TempDir(), "journal.jsonl")
	}
	q, err := jobqueue.Open(journal, qopts)
	if err != nil {
		t.Fatal(err)
	}
	s := New(q, t.TempDir())
	s.chunk = 256
	s.chunkDelay = 3 * time.Millisecond
	s.Observe(qopts.Metrics, qopts.Flight)
	pool := jobqueue.NewPool(q, workers, s.RunJob)
	ctx, cancel := context.WithCancel(context.Background())
	pool.Start(ctx)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		cancel()
		pool.Wait()
		q.Close()
	})
	return s, ts
}

func submit(t *testing.T, ts *httptest.Server, doc string) string {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, body)
	}
	var v jobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("submit response %s: %v", body, err)
	}
	if v.ID == "" {
		t.Fatalf("submit response has no id: %s", body)
	}
	return v.ID
}

func getView(t *testing.T, ts *httptest.Server, id string) jobView {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/sessions/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get %s: status %d: %s", id, resp.StatusCode, body)
	}
	var v jobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	return v
}

func waitState(t *testing.T, ts *httptest.Server, id string, want ...jobqueue.State) jobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	var v jobView
	for time.Now().Before(deadline) {
		v = getView(t, ts, id)
		for _, s := range want {
			if v.State == s {
				return v
			}
		}
		if v.State.Terminal() {
			t.Fatalf("job %s settled as %s (error %q), want %v", id, v.State, v.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s stuck in %s, want %v", id, v.State, want)
	return v
}

func post(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, body
}

func fetch(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, body
}

// directResult runs the config in-process and returns the canonical
// result document — the reference the HTTP artifact must match.
func directResult(t *testing.T, doc string) []byte {
	t.Helper()
	cfg, err := elastisim.ParseConfig([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	res, err := elastisim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLifecycleE2E drives the full service lifecycle over HTTP: submit →
// SSE progress → pause (with live Peek) → step → resume → completion →
// result artifact byte-identical to an in-process run of the same config.
func TestLifecycleE2E(t *testing.T) {
	_, ts := testServer(t, "", 1)
	id := submit(t, ts, slowConfigDoc)

	// Open the SSE stream and wait for the first progress event, which
	// proves the simulation is genuinely mid-run.
	sseCtx, sseCancel := context.WithCancel(context.Background())
	defer sseCancel()
	req, _ := http.NewRequestWithContext(sseCtx, "GET", ts.URL+"/v1/sessions/"+id+"/events", nil)
	sseResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer sseResp.Body.Close()
	if ct := sseResp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content type = %q", ct)
	}
	events := make(chan string, 64)
	go func() {
		sc := bufio.NewScanner(sseResp.Body)
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "event: ") {
				events <- strings.TrimPrefix(line, "event: ")
			}
		}
		close(events)
	}()
	waitEvent := func(want string) {
		t.Helper()
		deadline := time.After(30 * time.Second)
		for {
			select {
			case ev, ok := <-events:
				if !ok {
					t.Fatalf("SSE stream closed before %q event", want)
				}
				if ev == want {
					return
				}
			case <-deadline:
				t.Fatalf("no %q SSE event", want)
			}
		}
	}
	waitEvent("progress")

	// Pause between step chunks; the acknowledged view reports paused
	// with a live Peek.
	code, body := post(t, ts, "/v1/sessions/"+id+"/pause")
	if code != http.StatusOK {
		t.Fatalf("pause: status %d: %s", code, body)
	}
	var paused jobView
	if err := json.Unmarshal(body, &paused); err != nil {
		t.Fatal(err)
	}
	if paused.State != jobqueue.StatePaused || paused.Peek == nil {
		t.Fatalf("pause ack = %+v, want paused with peek", paused)
	}
	if paused.Peek.Done {
		t.Fatal("paused mid-run but Peek.Done is true")
	}

	// A paused simulation does not advance.
	ev0 := paused.Peek.Events
	time.Sleep(50 * time.Millisecond)
	if v := getView(t, ts, id); v.Peek == nil || v.Peek.Events != ev0 {
		t.Fatalf("paused session advanced: %+v", v.Peek)
	}

	// Step executes exactly bounded work while paused.
	code, body = post(t, ts, "/v1/sessions/"+id+"/step?n=100")
	if code != http.StatusOK {
		t.Fatalf("step: status %d: %s", code, body)
	}
	var stepped jobView
	if err := json.Unmarshal(body, &stepped); err != nil {
		t.Fatal(err)
	}
	if stepped.Peek == nil || stepped.Peek.Events != ev0+100 {
		t.Fatalf("after step(100): peek = %+v, want events %d", stepped.Peek, ev0+100)
	}
	// Stepping a running (non-paused) session is rejected later; pausing
	// twice is idempotent.
	code, _ = post(t, ts, "/v1/sessions/"+id+"/pause")
	if code != http.StatusOK {
		t.Fatalf("second pause: status %d", code)
	}

	code, body = post(t, ts, "/v1/sessions/"+id+"/resume")
	if code != http.StatusOK {
		t.Fatalf("resume: status %d: %s", code, body)
	}
	code, body = post(t, ts, "/v1/sessions/"+id+"/step")
	if code != http.StatusConflict {
		t.Fatalf("step while running: status %d: %s", code, body)
	}

	waitEvent("done")
	v := waitState(t, ts, id, jobqueue.StateDone)
	if v.Error != "" {
		t.Fatalf("done job carries error %q", v.Error)
	}

	// The HTTP result is byte-identical to the in-process run: pausing,
	// stepping, and chunked execution are invisible to the simulation.
	code, got := fetch(t, ts, "/v1/sessions/"+id+"/result")
	if code != http.StatusOK {
		t.Fatalf("result: status %d: %s", code, got)
	}
	if want := directResult(t, slowConfigDoc); !bytes.Equal(got, want) {
		t.Errorf("HTTP result differs from direct run:\nhttp:\n%s\ndirect:\n%s", got, want)
	}

	code, svg := fetch(t, ts, "/v1/sessions/"+id+"/gantt.svg")
	if code != http.StatusOK || !bytes.Contains(svg, []byte("<svg")) {
		t.Fatalf("gantt: status %d, body %.80s", code, svg)
	}
}

// TestSSEFinalProgress pins the stream's last progress event: the runner
// ticks the fan-out after every slice, so the final update (done: true)
// carries the run's last clock and event count, equal to a direct run's.
func TestSSEFinalProgress(t *testing.T) {
	_, ts := testServer(t, "", 1)
	id := submit(t, ts, slowConfigDoc)
	resp, err := http.Get(ts.URL + "/v1/sessions/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var updates []elastisim.ProgressUpdate
	event := ""
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() && event != "done" {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case event == "progress" && strings.HasPrefix(line, "data: "):
			var u elastisim.ProgressUpdate
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &u); err != nil {
				t.Fatal(err)
			}
			updates = append(updates, u)
		}
	}
	if len(updates) < 2 {
		t.Fatalf("%d progress events, want the run's ticks and a final one", len(updates))
	}
	for i := 1; i < len(updates); i++ {
		if updates[i].Events < updates[i-1].Events || updates[i].SimTime < updates[i-1].SimTime {
			t.Fatalf("progress went back: %+v after %+v", updates[i], updates[i-1])
		}
	}

	cfg, err := elastisim.ParseConfig([]byte(slowConfigDoc))
	if err != nil {
		t.Fatal(err)
	}
	session, err := elastisim.NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := session.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := elastisim.ProgressUpdate{SimTime: session.Now(), Events: res.Events, Done: true}
	if got := updates[len(updates)-1]; got != want {
		t.Errorf("final progress event %+v, want %+v", got, want)
	}
}

// TestConcurrentSubmissions floods the service from 8 concurrent clients
// and requires every job to complete with a result byte-identical to the
// in-process reference — the malleable-workload equivalent of a load test,
// run under -race in CI.
func TestConcurrentSubmissions(t *testing.T) {
	_, ts := testServer(t, "", 4)
	want := directResult(t, fastConfigDoc)

	const clients = 8
	ids := make([]string, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", strings.NewReader(fastConfigDoc))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusAccepted {
				t.Errorf("client %d: status %d: %s", i, resp.StatusCode, body)
				return
			}
			var v jobView
			if err := json.Unmarshal(body, &v); err != nil {
				t.Error(err)
				return
			}
			ids[i] = v.ID
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	seen := make(map[string]bool)
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate job id %s", id)
		}
		seen[id] = true
		waitState(t, ts, id, jobqueue.StateDone)
		code, got := fetch(t, ts, "/v1/sessions/"+id+"/result")
		if code != http.StatusOK {
			t.Fatalf("result %s: status %d", id, code)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("job %s result differs from reference", id)
		}
	}
}

// TestStepCap: a step count above the slice bound is a 400 that runs
// nothing, and a step at the bound still runs exactly that many events.
func TestStepCap(t *testing.T) {
	_, ts := testServer(t, "", 1)
	id := submit(t, ts, slowConfigDoc)
	waitState(t, ts, id, jobqueue.StateRunning)
	code, body := post(t, ts, "/v1/sessions/"+id+"/pause")
	if code != http.StatusOK {
		t.Fatalf("pause: status %d: %s", code, body)
	}
	var paused jobView
	if err := json.Unmarshal(body, &paused); err != nil {
		t.Fatal(err)
	}
	if paused.Peek == nil || paused.Peek.Done {
		t.Fatalf("pause ack = %+v, want a live peek mid-run", paused)
	}
	ev0 := paused.Peek.Events

	code, body = post(t, ts, "/v1/sessions/"+id+"/step?n=4097")
	if code != http.StatusBadRequest || !strings.Contains(string(body), "4096") {
		t.Fatalf("step?n=4097: status %d: %s; want 400 naming the cap 4096", code, body)
	}
	if v := getView(t, ts, id); v.Peek == nil || v.Peek.Events != ev0 {
		t.Fatalf("rejected step advanced the session: %+v, want events %d", v.Peek, ev0)
	}

	code, body = post(t, ts, "/v1/sessions/"+id+"/step?n=4096")
	if code != http.StatusOK {
		t.Fatalf("step?n=4096: status %d: %s", code, body)
	}
	var stepped jobView
	if err := json.Unmarshal(body, &stepped); err != nil {
		t.Fatal(err)
	}
	if stepped.Peek == nil || stepped.Peek.Events != ev0+4096 {
		t.Fatalf("after step(4096): peek = %+v, want events %d", stepped.Peek, ev0+4096)
	}
	if code, body := post(t, ts, "/v1/sessions/"+id+"/cancel"); code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("cancel: status %d: %s", code, body)
	}
	waitState(t, ts, id, jobqueue.StateCancelled)
}

// TestCancelMidRun cancels an executing job, running or parked by a
// pause: the worker settles it as cancelled between step chunks and
// flushes partial artifacts.
func TestCancelMidRun(t *testing.T) {
	for _, tc := range []struct {
		name  string
		pause bool
	}{{"running", false}, {"paused", true}} {
		t.Run(tc.name, func(t *testing.T) {
			_, ts := testServer(t, "", 1)
			id := submit(t, ts, slowConfigDoc)
			waitState(t, ts, id, jobqueue.StateRunning)
			if tc.pause {
				if code, body := post(t, ts, "/v1/sessions/"+id+"/pause"); code != http.StatusOK {
					t.Fatalf("pause: status %d: %s", code, body)
				}
			}

			code, body := post(t, ts, "/v1/sessions/"+id+"/cancel")
			if code != http.StatusAccepted && code != http.StatusOK {
				t.Fatalf("cancel: status %d: %s", code, body)
			}
			v := waitState(t, ts, id, jobqueue.StateCancelled)
			if v.Error != "" {
				t.Fatalf("cancelled job carries error %q", v.Error)
			}
			// Partial artifacts exist and parse.
			code, got := fetch(t, ts, "/v1/sessions/"+id+"/result")
			if code != http.StatusOK {
				t.Fatalf("partial result: status %d: %s", code, got)
			}
			if _, _, err := elastisim.UnmarshalResultSummary(got); err != nil {
				t.Fatalf("partial result does not parse: %v", err)
			}
		})
	}
}

// TestCancelPending cancels a job that never started (single worker busy
// with a slow job): it settles immediately without artifacts.
func TestCancelPending(t *testing.T) {
	_, ts := testServer(t, "", 1)
	blocker := submit(t, ts, slowConfigDoc)
	waitState(t, ts, blocker, jobqueue.StateRunning)
	victim := submit(t, ts, fastConfigDoc)

	code, body := post(t, ts, "/v1/sessions/"+victim+"/cancel")
	if code != http.StatusOK {
		t.Fatalf("cancel pending: status %d: %s", code, body)
	}
	if v := getView(t, ts, victim); v.State != jobqueue.StateCancelled {
		t.Fatalf("victim state = %s, want cancelled", v.State)
	}
	if code, _ := fetch(t, ts, "/v1/sessions/"+victim+"/result"); code != http.StatusConflict {
		t.Fatalf("result of never-run job: status %d, want 409", code)
	}
	// The blocker is unaffected.
	post(t, ts, "/v1/sessions/"+blocker+"/cancel")
}

// TestSubmitValidation pins that malformed configs are rejected at the
// door with 400, never becoming failed jobs.
func TestSubmitValidation(t *testing.T) {
	_, ts := testServer(t, "", 1)
	for _, doc := range []string{
		`not json`,
		`{"platform": {}}`,
		`{"platfrom": {}, "workload": {}}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", strings.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("doc %.30q: status %d (%s), want 400", doc, resp.StatusCode, body)
		}
	}
	if code, _ := fetch(t, ts, "/v1/sessions/j999999"); code != http.StatusNotFound {
		t.Errorf("unknown id: status %d, want 404", code)
	}
	// Nothing was enqueued.
	code, body := fetch(t, ts, "/v1/sessions")
	if code != http.StatusOK {
		t.Fatalf("list: status %d", code)
	}
	var views []jobView
	if err := json.Unmarshal(body, &views); err != nil {
		t.Fatal(err)
	}
	if len(views) != 0 {
		t.Errorf("queue has %d jobs after rejected submissions", len(views))
	}
}

// TestRestartRecovery kills the daemon mid-run and restarts it on the
// same journal: the completed job survives untouched (same artifacts, not
// re-executed) and the interrupted job is re-run to completion.
func TestRestartRecovery(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "journal.jsonl")
	dataDir := t.TempDir()

	q1, err := jobqueue.Open(journal, jobqueue.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s1 := New(q1, dataDir)
	s1.chunk = 256
	s1.chunkDelay = 3 * time.Millisecond
	pool1 := jobqueue.NewPool(q1, 1, s1.RunJob)
	ctx1, cancel1 := context.WithCancel(context.Background())
	pool1.Start(ctx1)
	ts1 := httptest.NewServer(s1.Handler())

	done := submit(t, ts1, fastConfigDoc)
	waitState(t, ts1, done, jobqueue.StateDone)
	doneBefore := getView(t, ts1, done)
	_, resultBefore := fetch(t, ts1, "/v1/sessions/"+done+"/result")

	interrupted := submit(t, ts1, slowConfigDoc)
	waitState(t, ts1, interrupted, jobqueue.StateRunning)

	// Kill: cancel the pool (workers release their jobs) and close the
	// queue, as the daemon's SIGINT path does.
	ts1.Close()
	cancel1()
	pool1.Wait()
	q1.Close()

	// Restart on the same journal and data directory.
	q2, err := jobqueue.Open(journal, jobqueue.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s2 := New(q2, dataDir)
	s2.chunk = 256
	s2.chunkDelay = 3 * time.Millisecond
	pool2 := jobqueue.NewPool(q2, 1, s2.RunJob)
	ctx2, cancel2 := context.WithCancel(context.Background())
	pool2.Start(ctx2)
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(func() {
		ts2.Close()
		cancel2()
		pool2.Wait()
		q2.Close()
	})

	// The completed job was not re-run: same attempt count, same start
	// time, same artifact bytes.
	doneAfter := getView(t, ts2, done)
	if doneAfter.State != jobqueue.StateDone {
		t.Fatalf("done job recovered as %s", doneAfter.State)
	}
	if doneAfter.Attempts != doneBefore.Attempts {
		t.Errorf("done job re-attempted: %d → %d", doneBefore.Attempts, doneAfter.Attempts)
	}
	if doneBefore.Started != nil && doneAfter.Started != nil && !doneAfter.Started.Equal(*doneBefore.Started) {
		t.Errorf("done job re-started: %v → %v", doneBefore.Started, doneAfter.Started)
	}
	code, resultAfter := fetch(t, ts2, "/v1/sessions/"+done+"/result")
	if code != http.StatusOK || !bytes.Equal(resultAfter, resultBefore) {
		t.Errorf("done job artifacts changed across restart (status %d)", code)
	}

	// The interrupted job was requeued and completes on the new daemon.
	v := waitState(t, ts2, interrupted, jobqueue.StateDone)
	if v.Attempts < 2 {
		t.Errorf("interrupted job attempts = %d, want >= 2 (re-run after recovery)", v.Attempts)
	}
	code, got := fetch(t, ts2, "/v1/sessions/"+interrupted+"/result")
	if code != http.StatusOK {
		t.Fatalf("recovered result: status %d", code)
	}
	if want := directResult(t, slowConfigDoc); !bytes.Equal(got, want) {
		t.Errorf("recovered job result differs from direct run")
	}
}

// TestListAndPeek exercises the listing endpoint while a job runs.
func TestListAndPeek(t *testing.T) {
	_, ts := testServer(t, "", 1)
	id := submit(t, ts, slowConfigDoc)
	waitState(t, ts, id, jobqueue.StateRunning)

	code, body := fetch(t, ts, "/v1/sessions")
	if code != http.StatusOK {
		t.Fatalf("list: status %d", code)
	}
	var views []jobView
	if err := json.Unmarshal(body, &views); err != nil {
		t.Fatal(err)
	}
	if len(views) != 1 || views[0].ID != id {
		t.Fatalf("list = %+v", views)
	}
	if views[0].State == jobqueue.StateRunning && views[0].Peek == nil {
		t.Error("running job listed without a live peek")
	}
	post(t, ts, "/v1/sessions/"+id+"/cancel")
	waitState(t, ts, id, jobqueue.StateCancelled)
}
