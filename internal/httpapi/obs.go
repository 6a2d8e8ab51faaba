package httpapi

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Observe attaches a metrics registry and flight recorder to the server.
// Call it before Handler(): per-route series are created at registration
// time. Both arguments may be nil (each side detaches independently).
func (s *Server) Observe(reg *obs.Registry, flight *obs.FlightRecorder) {
	s.reg = reg
	s.flight = flight
	if reg != nil {
		reg.Help("elastisimd_http_requests_total", "HTTP requests served, by route and status code")
		reg.Help("elastisimd_http_request_seconds", "HTTP request latency, by route")
		reg.Help("elastisimd_http_inflight", "HTTP requests currently being served")
		reg.Help("elastisimd_sse_subscribers", "SSE progress streams currently open")
		reg.Help("elastisimd_active_runs", "simulation sessions currently executing in this process")
		reg.Gauge("elastisimd_http_inflight", func() float64 { return float64(s.inflight.Load()) })
		reg.Gauge("elastisimd_sse_subscribers", func() float64 { return float64(s.sse.Load()) })
		reg.Gauge("elastisimd_active_runs", func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(len(s.live))
		})
	}
}

// SetAccessLog directs structured access logging (one JSON line per
// request) to w. The caller keeps ownership of w; writes are serialized.
func (s *Server) SetAccessLog(w io.Writer) { s.access = w }

// SetDraining flips the readiness probe: once draining, GET /readyz
// returns 503 so load balancers stop routing new work here, while
// /healthz keeps reporting the process itself alive.
func (s *Server) SetDraining() { s.draining.Store(true) }

// accessRecord is one access-log line.
type accessRecord struct {
	Time    time.Time `json:"t"`
	ID      string    `json:"id"`
	Method  string    `json:"method"`
	Path    string    `json:"path"`
	Route   string    `json:"route"`
	Status  int       `json:"status"`
	Bytes   int64     `json:"bytes"`
	Millis  float64   `json:"ms"`
	Remote  string    `json:"remote,omitempty"`
	ReqBody int64     `json:"req_bytes,omitempty"`
}

// statusWriter records the status code and body size of a response. It
// forwards Flush so SSE streaming keeps working through the wrapper (the
// underlying writer of every real server supports it; a non-Flusher
// writer turns Flush into a no-op rather than breaking the stream).
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(p []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	n, err := sw.ResponseWriter.Write(p)
	sw.bytes += int64(n)
	return n, err
}

func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// requestID returns the caller-provided X-Request-ID or generates one:
// a per-process boot tag plus a dense sequence number, unique within and
// across daemon restarts.
func (s *Server) requestID(r *http.Request) string {
	if id := r.Header.Get("X-Request-ID"); id != "" && len(id) <= 128 {
		return id
	}
	return fmt.Sprintf("%s-%06d", s.bootID, s.reqSeq.Add(1))
}

// instrument wraps one route's handler with the full observability
// stack: request ID generation and echo (set before the handler runs, so
// streaming responses carry it too), per-route request counting and
// latency histogram, the inflight gauge, and the access log.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	var hist *obs.Histogram
	if s.reg != nil {
		hist = s.reg.Histogram(fmt.Sprintf("elastisimd_http_request_seconds{route=%q}", route), obs.DefLatencyBuckets)
	}
	return func(w http.ResponseWriter, r *http.Request) {
		id := s.requestID(r)
		w.Header().Set("X-Request-ID", id)
		sw := &statusWriter{ResponseWriter: w}
		s.inflight.Add(1)
		start := time.Now()
		h(sw, r)
		elapsed := time.Since(start)
		s.inflight.Add(-1)
		if sw.status == 0 {
			// The handler wrote nothing (e.g. client went away mid-SSE
			// before anything was emitted): net/http would send 200.
			sw.status = http.StatusOK
		}
		if s.reg != nil {
			s.reg.Counter(fmt.Sprintf("elastisimd_http_requests_total{route=%q,code=\"%d\"}", route, sw.status)).Inc()
			hist.Observe(elapsed.Seconds())
		}
		if sw.status >= 500 {
			s.flight.Recordf("httpapi", "%s %s -> %d (%s)", r.Method, r.URL.Path, sw.status, id)
		}
		if s.access != nil {
			line, _ := json.Marshal(accessRecord{
				Time:   start.UTC(),
				ID:     id,
				Method: r.Method,
				Path:   r.URL.Path,
				Route:  route,
				Status: sw.status,
				Bytes:  sw.bytes,
				Millis: float64(elapsed.Microseconds()) / 1000,
				Remote: r.RemoteAddr,
			})
			s.accessMu.Lock()
			_, _ = s.access.Write(append(line, '\n'))
			s.accessMu.Unlock()
		}
	}
}

// handleMetrics renders the registry in Prometheus text exposition
// format. With no registry attached the endpoint serves an empty
// (still valid) exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WritePrometheus(w)
}

// handleHealthz is liveness: the process is up and serving.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz is readiness: 200 while accepting work, 503 once the
// graceful drain began (healthz stays 200 throughout — the process is
// alive, it just should not receive new traffic).
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}

// obsState is the observability-related server state, embedded in Server.
type obsState struct {
	reg      *obs.Registry
	flight   *obs.FlightRecorder
	access   io.Writer
	accessMu sync.Mutex
	draining atomic.Bool
	inflight atomic.Int64
	sse      atomic.Int64
	bootID   string
	reqSeq   atomic.Uint64
}
