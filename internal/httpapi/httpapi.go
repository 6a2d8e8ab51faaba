// Package httpapi exposes the simulator as a service: a REST API over a
// jobqueue.Queue where each submitted configuration becomes a journaled
// job executed by a worker pool, observable live through Peek snapshots
// and an SSE progress stream, and steerable through pause/resume/step/
// cancel endpoints.
//
//	POST /v1/sessions                submit a combined config → job id
//	GET  /v1/sessions                list jobs
//	GET  /v1/sessions/{id}           job state + live Peek while running
//	GET  /v1/sessions/{id}/events    SSE progress stream
//	POST /v1/sessions/{id}/pause     park the run between event slices
//	POST /v1/sessions/{id}/resume    continue a paused run
//	POST /v1/sessions/{id}/step?n=   execute n events while paused
//	POST /v1/sessions/{id}/cancel    stop the run, keeping partial artifacts
//	GET  /v1/sessions/{id}/result    canonical result JSON
//	GET  /v1/sessions/{id}/trace     event log, streamed to disk while the run goes (when the config enabled it)
//	GET  /v1/sessions/{id}/gantt.svg allocation Gantt chart
package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/elastisim"
	"repro/internal/jobqueue"
)

// Server is the HTTP face of one job queue. Create it with New, register
// its RunJob method as the worker pool's Runner, and serve Handler().
type Server struct {
	queue   *jobqueue.Queue
	dataDir string

	mu   sync.Mutex
	live map[string]*liveRun

	// chunk is the Step slice size (the latency bound on control
	// requests); tests shorten it. chunkDelay inserts a test-only sleep
	// between Step slices so control requests land mid-run
	// deterministically — execution slicing is invisible to the
	// simulation, so it cannot change results.
	chunk      int
	chunkDelay time.Duration

	obsState
}

// New creates a Server over queue, writing job artifacts under dataDir.
func New(queue *jobqueue.Queue, dataDir string) *Server {
	s := &Server{
		queue:   queue,
		dataDir: dataDir,
		live:    make(map[string]*liveRun),
		chunk:   stepChunk,
	}
	s.bootID = fmt.Sprintf("%x", time.Now().UnixNano())
	return s
}

func (s *Server) register(id string, lr *liveRun) {
	s.mu.Lock()
	s.live[id] = lr
	s.mu.Unlock()
}

func (s *Server) deregister(id string) {
	s.mu.Lock()
	delete(s.live, id)
	s.mu.Unlock()
}

func (s *Server) liveRun(id string) *liveRun {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.live[id]
}

// Handler builds the route table. Every route — probes and metrics
// included — goes through the instrument middleware, so each gets a
// request counter, a latency histogram, an access-log line, and an
// X-Request-ID echo. Route labels are pinned here at registration, the
// only place Go's mux knows the pattern.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	route := func(pattern string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, s.instrument(pattern, h))
	}
	route("POST /v1/sessions", s.handleSubmit)
	route("GET /v1/sessions", s.handleList)
	route("GET /v1/sessions/{id}", s.handleGet)
	route("GET /v1/sessions/{id}/events", s.handleEvents)
	route("POST /v1/sessions/{id}/pause", s.handleCtrl(opPause))
	route("POST /v1/sessions/{id}/resume", s.handleCtrl(opResume))
	route("POST /v1/sessions/{id}/step", s.handleCtrl(opStep))
	route("POST /v1/sessions/{id}/cancel", s.handleCancel)
	route("GET /v1/sessions/{id}/result", s.handleArtifact("result.json", "application/json"))
	route("GET /v1/sessions/{id}/trace", s.handleArtifact("trace.json", "application/json"))
	route("GET /v1/sessions/{id}/gantt.svg", s.handleArtifact("gantt.svg", "image/svg+xml"))
	route("GET /metrics", s.handleMetrics)
	route("GET /healthz", s.handleHealthz)
	route("GET /readyz", s.handleReadyz)
	return mux
}

// jobView is the wire shape of a job: lifecycle fields plus, while the
// job runs, a live Peek snapshot.
type jobView struct {
	ID        string          `json:"id"`
	State     jobqueue.State  `json:"state"`
	Submitted time.Time       `json:"submitted"`
	Started   *time.Time      `json:"started,omitempty"`
	Finished  *time.Time      `json:"finished,omitempty"`
	Attempts  int             `json:"attempts,omitempty"`
	Error     string          `json:"error,omitempty"`
	Note      string          `json:"note,omitempty"`
	Peek      *elastisim.Peek `json:"peek,omitempty"`
}

func (s *Server) view(j jobqueue.Job, withPeek bool) jobView {
	v := jobView{
		ID:        j.ID,
		State:     j.State,
		Submitted: j.Submitted,
		Attempts:  j.Attempts,
		Error:     j.Error,
		Note:      j.Note,
	}
	if !j.Started.IsZero() {
		t := j.Started
		v.Started = &t
	}
	if !j.Finished.IsZero() {
		t := j.Finished
		v.Finished = &t
	}
	if withPeek && j.State.Active() {
		if lr := s.liveRun(j.ID); lr != nil {
			p := lr.session.Peek()
			v.Peek = &p
		}
	}
	return v
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// handleSubmit validates the posted config document and enqueues it.
// Validation happens here — before the job exists — so a malformed config
// is a 400 at submit time, never a failed job.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, 64<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	if _, err := elastisim.ParseConfig(body); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// The job keeps its config resident; store an exact-size copy, not
	// ReadAll's buffer with its spare capacity.
	job, err := s.queue.Submit(bytes.Clone(body))
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, s.view(job, false))
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.queue.List()
	views := make([]jobView, len(jobs))
	for i, j := range jobs {
		views[i] = s.view(j, true)
	}
	writeJSON(w, http.StatusOK, views)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	job, ok := s.queue.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no session %s", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, s.view(job, true))
}

// handleCtrl builds the pause/resume/step handler: the request is relayed
// to the owning worker over the live run's control channel and the worker
// acknowledges after applying it between Step slices.
func (s *Server) handleCtrl(op ctrlOp) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		job, ok := s.queue.Get(id)
		if !ok {
			writeError(w, http.StatusNotFound, "no session %s", id)
			return
		}
		if job.State.Terminal() {
			writeError(w, http.StatusConflict, "session %s is %s", id, job.State)
			return
		}
		lr := s.liveRun(id)
		if lr == nil {
			writeError(w, http.StatusConflict, "session %s is %s, not executing yet", id, job.State)
			return
		}
		msg := ctrlMsg{op: op, reply: make(chan error, 1)}
		if op == opStep {
			if nStr := r.URL.Query().Get("n"); nStr != "" {
				n, err := strconv.Atoi(nStr)
				if err != nil || n <= 0 {
					writeError(w, http.StatusBadRequest, "invalid step count %q", nStr)
					return
				}
				// One step is one slice under the session mutex: it may
				// not outlast the bound Peek, pause and cancel rely on.
				if n > stepChunk {
					writeError(w, http.StatusBadRequest, "step count %d exceeds the step cap %d", n, stepChunk)
					return
				}
				msg.n = n
			}
		}
		select {
		case lr.ctrl <- msg:
		case <-time.After(5 * time.Second):
			writeError(w, http.StatusServiceUnavailable, "worker for %s is not responding", id)
			return
		case <-r.Context().Done():
			return
		}
		select {
		case err := <-msg.reply:
			if err != nil {
				writeError(w, http.StatusConflict, "%v", err)
				return
			}
		case <-time.After(5 * time.Second):
			writeError(w, http.StatusServiceUnavailable, "worker for %s did not acknowledge", id)
			return
		case <-r.Context().Done():
			return
		}
		job, _ = s.queue.Get(id)
		writeJSON(w, http.StatusOK, s.view(job, true))
	}
}

// handleCancel stops a session. Pending jobs cancel immediately; for an
// executing job the store journals the request, so it survives a restart,
// and the owning worker honors it between Step slices, flushing partial
// artifacts before it settles the job.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.queue.Get(id); !ok {
		writeError(w, http.StatusNotFound, "no session %s", id)
		return
	}
	state, err := s.queue.Cancel(id)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	status := http.StatusOK
	if state.Active() {
		status = http.StatusAccepted // the worker will settle it shortly
		// A run registered by now hears the request on its control
		// channel; one that registers later reads the store flag.
		if lr := s.liveRun(id); lr != nil {
			select {
			case lr.ctrl <- ctrlMsg{op: opCancel}:
			case <-r.Context().Done():
				return
			}
		}
	}
	job, _ := s.queue.Get(id)
	writeJSON(w, status, s.view(job, true))
}

// handleEvents streams SSE: "progress" events while the simulation runs
// (one per fan-out update), then a single "done" event carrying the final
// job view once the job reaches a terminal state.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.queue.Get(id); !ok {
		writeError(w, http.StatusNotFound, "no session %s", id)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	s.sse.Add(1)
	defer s.sse.Add(-1)

	emit := func(event string, v any) {
		data, _ := json.Marshal(v)
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
		flusher.Flush()
	}

	var streamed *liveRun
	for {
		// The state is read before the live-run lookup: a run registers
		// while its job is claimed and then marks it running, so a run
		// that registers after the lookup always ends the wait below.
		job, ok := s.queue.Get(id)
		if !ok || job.State.Terminal() {
			emit("done", s.view(job, false))
			return
		}
		if lr := s.liveRun(id); lr != nil && lr != streamed {
			streamed = lr
			ch, cancel := lr.fan.Subscribe(16)
			s.streamProgress(r, ch, emit)
			cancel()
			continue
		}
		// Not executing (yet, or anymore): wait for the job's next
		// transition.
		if s.queue.WaitTask(r.Context(), id, job.State) != nil {
			return
		}
	}
}

// streamProgress relays fan-out updates to the SSE connection until the
// run's stream closes or the client disconnects.
func (s *Server) streamProgress(r *http.Request, ch <-chan elastisim.ProgressUpdate, emit func(string, any)) {
	for {
		select {
		case u, ok := <-ch:
			if !ok {
				return
			}
			emit("progress", u)
		case <-r.Context().Done():
			return
		}
	}
}

// handleArtifact serves one file from the job's artifact directory. The
// canonical result JSON is served byte-for-byte as the runner wrote it,
// which is what makes the HTTP result comparable to a direct CLI run.
func (s *Server) handleArtifact(name, contentType string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		job, ok := s.queue.Get(id)
		if !ok {
			writeError(w, http.StatusNotFound, "no session %s", id)
			return
		}
		if job.Result == "" {
			writeError(w, http.StatusConflict, "session %s is %s: no artifacts yet", id, job.State)
			return
		}
		f, err := os.Open(filepath.Join(job.Result, name))
		if err != nil {
			if os.IsNotExist(err) {
				writeError(w, http.StatusNotFound, "session %s has no %s artifact", id, name)
				return
			}
			writeError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		defer f.Close()
		w.Header().Set("Content-Type", contentType)
		_, _ = io.Copy(w, f)
	}
}
