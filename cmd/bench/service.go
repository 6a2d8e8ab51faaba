package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/elastisim"
	"repro/internal/httpapi"
	"repro/internal/jobqueue"
	"repro/internal/obs"
)

// service is an in-process elastisimd: journaled queue, worker pool and
// HTTP server on a loopback listener, assembled the way cmd/elastisimd does.
type service struct {
	dir      string        // scratch data directory, removed by stop
	took     time.Duration // how long starting took
	reg      *obs.Registry
	queue    *jobqueue.Queue
	pool     *jobqueue.Pool
	stopPool context.CancelFunc
	http     *http.Server
	served   chan error
	client   *http.Client
	base     string
}

func (s *service) journal() string { return filepath.Join(s.dir, "jobs", "journal.jsonl") }

func startService(e *env) (*service, error) {
	dir, err := e.scratch("service-")
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	s := &service{dir: dir, reg: obs.NewRegistry(), served: make(chan error, 1)}
	if err := os.MkdirAll(filepath.Join(dir, "jobs"), 0o755); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	workers := e.workers
	s.queue, err = jobqueue.Open(s.journal(), jobqueue.Options{
		Metrics: s.reg, JournalShards: journalShards, GroupCommit: groupCommit,
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	server := httpapi.New(s.queue, dir)
	server.Observe(s.reg, nil)
	s.pool = jobqueue.NewPool(s.queue, workers, server.RunJob)
	var poolCtx context.Context
	poolCtx, s.stopPool = context.WithCancel(context.Background())
	s.pool.Start(poolCtx)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.stopPool()
		s.pool.Wait()
		s.queue.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	s.http = &http.Server{Handler: server.Handler()}
	go func() { s.served <- s.http.Serve(ln) }()
	s.base = "http://" + ln.Addr().String()
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * workers}}
	resp, err := s.client.Get(s.base + "/healthz")
	if err == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	if err != nil {
		_ = s.stop()
		return nil, err
	}
	s.took = time.Since(t0)
	return s, nil
}

// stop drains the pool, shuts the server down, closes the journal and
// removes the data directory; it returns once every goroutine the service
// started has ended.
func (s *service) stop() error {
	defer os.RemoveAll(s.dir)
	s.stopPool()
	s.pool.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	if err != nil {
		err = s.http.Close()
	}
	if serr := <-s.served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	s.client.CloseIdleConnections()
	if cerr := s.queue.Close(); err == nil {
		err = cerr
	}
	return err
}

// journalStats is what a journaled store's registry and files say about
// its journal after a batch.
type journalStats struct {
	fsyncs   uint64
	fsyncSum float64 // seconds
	bytes    int64   // on disk: the base path plus its shards
}

// readJournal reads the <prefix>_journal_fsync_seconds histogram and sizes
// the journal's files.
func readJournal(reg *obs.Registry, prefix, path string) journalStats {
	h := reg.Histogram(prefix+"_journal_fsync_seconds", obs.DefLatencyBuckets)
	j := journalStats{fsyncs: h.Count(), fsyncSum: h.Sum()}
	files, _ := filepath.Glob(path + "*")
	for _, f := range files {
		if fi, err := os.Stat(f); err == nil {
			j.bytes += fi.Size()
		}
	}
	return j
}

// report sets the journal's per-layer metrics for a batch of the given
// wall time, and replays the store alone over as many tasks as it settled.
func (j journalStats) report(m metricSet, e *env, wall float64, tasks int) error {
	m.set("distwork.journal_fsyncs", float64(j.fsyncs), 1)
	m.set("distwork.journal_fsync_s", j.fsyncSum, int(j.fsyncs))
	m.set("distwork.fsync_share", j.fsyncSum/wall, int(j.fsyncs))
	m.set("distwork.journal_bytes", float64(j.bytes), 1)
	us, err := replayStore(tasks, "")
	if err != nil {
		return err
	}
	m.set("distwork.replay_claim_finish_us", us, tasks)
	dir, err := e.scratch("replay-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if us, err = replayStore(tasks, filepath.Join(dir, "journal.jsonl")); err != nil {
		return err
	}
	m.set("distwork.replay_journaled_claim_finish_us", us, tasks)
	return nil
}

// The steps of one submit → events → result op, as a waiting caller and the
// server's own job stamps see them.
const (
	stepTotal      = iota // POST sent → result bytes read
	stepSubmit            // POST round trip
	stepSSEFirst          // stream opened → first event
	stepSSEDoneLag        // job's finished stamp → client reads "done"
	stepFetch             // GET result round trip
	stepQueueWait         // submitted → started
	stepRun               // started → finished
	numSteps
)

// sessionTimes is what one op took, by step.
type sessionTimes [numSteps]time.Duration

// stepMetric names the per-layer median of each step.
var stepMetric = [numSteps]string{
	stepSubmit:     "httpapi.submit_ms_p50",
	stepSSEFirst:   "httpapi.sse_first_event_ms_p50",
	stepSSEDoneLag: "httpapi.sse_done_lag_ms_p50",
	stepFetch:      "httpapi.result_fetch_ms_p50",
	stepQueueWait:  "jobqueue.queue_wait_ms_p50",
	stepRun:        "jobqueue.run_ms_p50",
}

// session drives one op the way a waiting caller would: POST the config,
// follow the SSE stream to its done event, fetch the result. It fails
// unless the result equals want byte for byte.
func (s *service) session(body, want []byte, log *spanLog, op int) (sessionTimes, error) {
	var st sessionTimes
	root := log.begin("bench.op", -1, op)
	defer log.end(root)

	t0 := time.Now()
	resp, err := s.client.Post(s.base+"/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		return st, err
	}
	var job struct {
		ID                           string
		State                        string
		Submitted, Started, Finished time.Time
	}
	err = json.NewDecoder(resp.Body).Decode(&job)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		return st, fmt.Errorf("submit: %s (%v)", resp.Status, err)
	}
	t1 := time.Now()
	st[stepSubmit] = t1.Sub(t0)
	log.add("httpapi.submit", root, op, t0, t1)

	resp, err = s.client.Get(s.base + "/v1/sessions/" + job.ID + "/events")
	if err != nil {
		return st, err
	}
	event, done := "", false
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if name, ok := strings.CutPrefix(line, "event: "); ok {
			event = name
			if st[stepSSEFirst] == 0 {
				st[stepSSEFirst] = time.Since(t1)
			}
		} else if data, ok := strings.CutPrefix(line, "data: "); ok && event == "done" {
			done = json.Unmarshal([]byte(data), &job) == nil
		}
	}
	resp.Body.Close()
	t2 := time.Now()
	if !done || job.State != "done" {
		return st, fmt.Errorf("session %s: stream ended in state %q (%v)", job.ID, job.State, sc.Err())
	}
	st[stepSSEDoneLag] = t2.Sub(job.Finished)
	st[stepQueueWait], st[stepRun] = job.Started.Sub(job.Submitted), job.Finished.Sub(job.Started)
	sse := log.add("httpapi.sse", root, op, t1, t2)
	log.add("jobqueue.wait", sse, op, job.Submitted, job.Started)
	log.add("jobqueue.run", sse, op, job.Started, job.Finished)

	resp, err = s.client.Get(s.base + "/v1/sessions/" + job.ID + "/result")
	if err != nil {
		return st, err
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	t3 := time.Now()
	if err != nil || resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("result: %s (%v)", resp.Status, err)
	}
	st[stepFetch], st[stepTotal] = t3.Sub(t2), t3.Sub(t0)
	log.add("httpapi.result", root, op, t2, t3)
	if !bytes.Equal(got, want) {
		return st, fmt.Errorf("session %s: result differs from the direct run", job.ID)
	}
	return st, nil
}

// serviceConfig is one config document and what it must produce.
type serviceConfig struct {
	body   []byte            // the document a session posts
	want   []byte            // its result, from elastisim.Run with no server
	direct *elastisim.Result // that run
}

// serviceWorkload submits generated configs in rotation. One config would
// do for timing, but what a session allocates swings by a quarter with the
// jobs a seed happens to draw; ten configs per seed average that out.
type serviceWorkload struct {
	configs []serviceConfig
	ops     int
}

// serviceBatch is what a round keeps: the server and what its clients and
// its registry measured.
type serviceBatch struct {
	svc     *service
	times   []sessionTimes
	journal journalStats
}

func (w *serviceWorkload) digest() string {
	h := sha256.New()
	for _, c := range w.configs {
		h.Write(c.want)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func (w *serviceWorkload) spec(e *env) simSpec {
	sp := simSpec{nodes: 128, jobs: 150, algo: "adaptive", build: generated(per(2304), 0.5, nil, ""), platform: stdPlatform}
	if e.short {
		sp.nodes, sp.jobs = 32, 30
	}
	return sp
}

func (w *serviceWorkload) warmup(e *env) error {
	configs := 10
	if e.short {
		configs = 2
	}
	w.configs = make([]serviceConfig, configs)
	for i := range w.configs {
		c := &w.configs[i]
		cfg, err := w.spec(e).config(e.seed<<8 + uint64(i))
		if err != nil {
			return err
		}
		if c.body, err = elastisim.MarshalConfig(cfg); err != nil {
			return err
		}
		if c.direct, err = directRun(c.body); err != nil {
			return err
		}
		var buf bytes.Buffer
		if err := c.direct.WriteJSON(&buf); err != nil {
			return err
		}
		c.want = buf.Bytes()
	}
	return nil
}

// directRun is the service's op without the service.
func directRun(body []byte) (*elastisim.Result, error) {
	cfg, err := elastisim.ParseConfig(body)
	if err != nil {
		return nil, err
	}
	return elastisim.Run(cfg)
}

// start is a round's set-up: a fresh service, and one discarded session
// that opens the connections and warms the server, so that set-up ends where
// the service can serve its first timed op.
func (w *serviceWorkload) start(e *env) (*service, time.Duration, error) {
	svc, err := startService(e)
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	if _, err := svc.session(w.configs[0].body, w.configs[0].want, nil, 0); err != nil {
		_ = svc.stop()
		return nil, 0, fmt.Errorf("warm-up session: %w", err)
	}
	return svc, svc.took + time.Since(t0), nil
}

func (w *serviceWorkload) setup(e *env) (time.Duration, error) {
	svc, took, err := w.start(e)
	if err != nil {
		return 0, err
	}
	return took, svc.stop()
}

func (w *serviceWorkload) round(e *env, log *spanLog) (*roundStats, error) {
	sessions := 60
	if e.short {
		sessions = 4
	}
	svc, took, err := w.start(e)
	if err != nil {
		return nil, err
	}
	r := &roundStats{setup: took, ops: sessions, release: svc.stop}

	times, errs := make([]sessionTimes, sessions), make([]error, sessions)
	var next atomic.Int64
	var wg sync.WaitGroup
	stop := meter()
	for c := 0; c < e.workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < sessions; i = int(next.Add(1)) - 1 {
				c := w.configs[i%len(w.configs)]
				times[i], errs[i] = svc.session(c.body, c.want, log, w.ops+i+1)
			}
		}()
	}
	wg.Wait()
	r.use = stop()
	w.ops += sessions

	batch := &serviceBatch{svc: svc}
	for i, err := range errs {
		if err != nil {
			r.failed++
			fmt.Fprintln(os.Stderr, "bench: service_sessions:", err)
			continue
		}
		batch.times = append(batch.times, times[i])
		r.latency = append(r.latency, times[i][stepTotal])
		r.events += w.configs[i%len(w.configs)].direct.Events
	}
	batch.journal = readJournal(svc.reg, "elastisimd", svc.journal())
	r.keep = batch
	return r, nil
}

func (w *serviceWorkload) layers(e *env, plain, traced *roundStats, log *spanLog) (metricSet, error) {
	m := metricSet{}
	first := w.configs[0] // the simulator-side numbers are the first config's
	kernelCounts(m, first.direct.Telemetry, 1)
	b := plain.keep.(*serviceBatch)
	n := len(plain.latency)
	for step, name := range stepMetric {
		if name != "" {
			col := make([]float64, n)
			for i, st := range b.times {
				col[i] = millis(st[step])
			}
			m.set(name, quantile(col, 0.5), n)
		}
	}
	lat := durations(plain.latency, millis)
	p50 := quantile(lat, 0.5)
	m.set("httpapi.result_bytes", float64(len(first.want)), 1)
	m.set("httpapi.session_latency_p95_ms", quantile(lat, 0.95), n)
	m.set("httpapi.sessions_per_s", float64(n)/seconds(plain.use.wall), n)
	m.set("trace.overhead_ratio", quantile(durations(traced.latency, millis), 0.5)/p50, len(traced.latency))

	if err := b.journal.report(m, e, seconds(plain.use.wall), plain.ops); err != nil {
		return nil, err
	}

	var parse, direct []time.Duration
	for _, c := range w.configs {
		t0 := time.Now()
		if _, err := elastisim.ParseConfig(c.body); err != nil {
			return nil, err
		}
		parse = append(parse, time.Since(t0))
		t0 = time.Now()
		if _, err := directRun(c.body); err != nil {
			return nil, err
		}
		direct = append(direct, time.Since(t0))
	}
	directP50 := quantile(durations(direct, millis), 0.5)
	m.set("elastisim.parse_config_ms", quantile(durations(parse, millis), 0.5), len(parse))
	m.set("elastisim.direct_run_ms_p50", directP50, len(direct))
	m.set("httpapi.overhead_ratio", p50/directP50, n)

	t0 := time.Now()
	if err := first.direct.WriteGanttSVG(io.Discard, "bench"); err != nil {
		return nil, err
	}
	m.set("viz.gantt_s", seconds(time.Since(t0)), 1)
	m.set("metrics.records", float64(len(first.direct.Records)), 1)
	m.set("metrics.gantt_segments", float64(len(first.direct.Recorder.Gantt())), 1)
	m.set("job.marshal_mb", float64(len(first.body))/mb, 1)
	runtimeCounts(m, plain.use, plain.events)
	return m, nil
}
