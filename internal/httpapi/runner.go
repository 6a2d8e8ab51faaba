package httpapi

import (
	"bufio"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/elastisim"
	"repro/internal/jobqueue"
)

// stepChunk bounds how many events one Step slice executes. The session
// mutex is held for the duration of a slice, so the chunk size is the
// latency bound on Peek, pause, and cancel: small enough that control
// interleaves promptly, large enough that the mutex round-trip is noise.
// It is also the cadence of SSE progress, which the runner feeds after
// every slice.
const stepChunk = 4096

// liveRun is the in-memory side of an executing job: the session (for
// Peek), the progress fan-out (for SSE subscribers), and the control
// channel the HTTP handlers use to reach the worker between Step slices.
// paused, cancel and events are the worker's own state; only the
// goroutine running the job touches them.
type liveRun struct {
	session        *elastisim.Session
	fan            *elastisim.ProgressFanOut
	ctrl           chan ctrlMsg
	paused, cancel bool
	events         uint64 // events fired so far
}

type ctrlOp string

const (
	opPause  ctrlOp = "pause"
	opResume ctrlOp = "resume"
	opStep   ctrlOp = "step"
	opCancel ctrlOp = "cancel"
)

type ctrlMsg struct {
	op    ctrlOp
	n     int        // opStep: number of events
	reply chan error // sent once the worker applied the op (nil: no reply)
}

// RunJob is the jobqueue.Runner that executes one simulation job: it
// parses the journaled config, drives a Session in bounded Step slices —
// so Peek, SSE progress, and pause/resume/cancel control interleave
// between slices — and writes the result artifacts under the server's
// data directory. The artifact directory path becomes the job's Result.
// It feeds the progress fan-out after every slice it steps and closes it
// once the run is over, before any artifact is written.
func (s *Server) RunJob(ctx context.Context, q *jobqueue.Queue, job jobqueue.Job) (string, error) {
	cfg, err := elastisim.ParseConfig(job.Payload)
	if err != nil {
		return "", fmt.Errorf("invalid config: %w", err)
	}
	cfg.Metrics = s.reg
	cfg.Flight = s.flight
	// A traced config streams its event log into the job directory.
	var tf *traceFile
	if cfg.Options.Trace != nil {
		if tf, err = createTraceFile(filepath.Join(s.dataDir, "jobs", job.ID)); err != nil {
			return "", err
		}
		defer tf.close(false) // a run that fails keeps no half array
		cfg.Options.Trace = tf.add
	}
	session, err := elastisim.NewSession(cfg)
	if err != nil {
		return "", err
	}
	lr := &liveRun{session: session, fan: &elastisim.ProgressFanOut{}, ctrl: make(chan ctrlMsg, 16)}
	s.register(job.ID, lr)
	defer s.deregister(job.ID)
	defer lr.fan.Done() // idempotent; covers the error paths

	// A cancel accepted before the run registered reached only the store;
	// later ones also arrive as opCancel.
	cur, _ := q.Get(job.ID)
	lr.cancel = cur.CancelRequested
	if err := q.MarkRunning(job.ID, job.Worker); err != nil {
		return "", err
	}

	for {
		// Apply queued control requests first so a pause or cancel never
		// waits behind another full chunk.
		for applied := true; applied; {
			select {
			case msg := <-lr.ctrl:
				lr.apply(q, job, msg)
			default:
				applied = false
			}
		}
		if lr.cancel {
			lr.fan.Done()
			dir, werr := s.writeArtifacts(job.ID, session, tf)
			if werr != nil {
				dir = ""
			}
			if err := q.FinishCancelled(job.ID, job.Worker, dir); err != nil {
				return "", err
			}
			return "", jobqueue.ErrFinished
		}
		if ctx.Err() != nil {
			// Shutdown: journal how far we got and requeue. Partial
			// artifacts are flushed too, so operators can inspect the
			// interrupted run; a restart re-runs the job from scratch.
			p := session.Peek()
			lr.fan.Done()
			_, _ = s.writeArtifacts(job.ID, session, tf)
			return "", fmt.Errorf("interrupted at sim t=%.3fs after %d events (%d/%d jobs): %w",
				p.Now, p.Events, p.Completed, p.Total, jobqueue.ErrInterrupted)
		}
		if lr.paused {
			// Parked until a control request (a cancel included) or shutdown.
			select {
			case msg := <-lr.ctrl:
				lr.apply(q, job, msg)
			case <-ctx.Done():
			}
			continue
		}
		fired, err := lr.step(s.chunk)
		if err != nil {
			s.dumpPostmortem(job.ID, err)
			return "", err
		}
		if fired == 0 {
			break // drained (or horizon): the simulation cannot advance
		}
		if s.chunkDelay > 0 {
			time.Sleep(s.chunkDelay)
		}
	}

	if _, err := session.Result(); err != nil {
		s.dumpPostmortem(job.ID, err)
		return "", err
	}
	lr.fan.Done()
	return s.writeArtifacts(job.ID, session, tf)
}

// step advances the session by up to n events and, when any fired, ticks
// the progress fan-out with where the run now stands. The runner is the
// session's only driver, so its own count of fired events is the run's.
func (lr *liveRun) step(n int) (int, error) {
	fired, err := lr.session.Step(n)
	if fired > 0 {
		lr.events += uint64(fired)
		lr.fan.Tick(lr.session.Now(), lr.events)
	}
	return fired, err
}

// dumpPostmortem writes the flight recorder's postmortem artifact next to
// the job's other artifacts when a run died of an engine invariant panic
// (*elastisim.InternalError). Failures to write are swallowed: the
// postmortem is best-effort evidence, the job error is authoritative.
func (s *Server) dumpPostmortem(id string, runErr error) {
	var ie *elastisim.InternalError
	if s.flight == nil || !errors.As(runErr, &ie) {
		return
	}
	dir := filepath.Join(s.dataDir, "jobs", id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return
	}
	f, err := os.Create(filepath.Join(dir, "postmortem.json"))
	if err != nil {
		return
	}
	defer f.Close()
	_ = s.flight.WritePostmortem(f, "panic", fmt.Sprintf("job %s: %v", id, ie), s.reg)
}

// apply executes one control request on behalf of the worker.
func (lr *liveRun) apply(q *jobqueue.Queue, job jobqueue.Job, msg ctrlMsg) {
	var err error
	switch msg.op {
	case opPause:
		if !lr.paused {
			err = q.MarkPaused(job.ID, job.Worker)
			lr.paused = err == nil
		}
	case opResume:
		if lr.paused {
			err = q.MarkRunning(job.ID, job.Worker)
			if err == nil {
				lr.paused = false
			}
		}
	case opCancel:
		lr.cancel = true
	case opStep:
		if !lr.paused {
			err = fmt.Errorf("job %s is not paused", job.ID)
			break
		}
		n := msg.n
		if n <= 0 {
			n = 1
		}
		_, err = lr.step(n)
	default:
		err = fmt.Errorf("unknown control op %q", msg.op)
	}
	if msg.reply != nil {
		msg.reply <- err
	}
}

// writeArtifacts flushes the session's current result to
// dataDir/jobs/<id>/: result.json always, gantt.svg always, and
// trace.json when the config enabled event tracing (tf, which it
// closes). It returns the artifact directory. Called both at completion
// and — with a partial result — on cancel and shutdown.
func (s *Server) writeArtifacts(id string, session *elastisim.Session, tf *traceFile) (string, error) {
	res, err := session.Result()
	if err != nil {
		return "", err
	}
	dir := filepath.Join(s.dataDir, "jobs", id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	if err := writeFile(filepath.Join(dir, "result.json"), res.WriteJSON); err != nil {
		return "", err
	}
	if err := writeFile(filepath.Join(dir, "gantt.svg"), func(w io.Writer) error {
		return res.WriteGanttSVG(w, "job "+id)
	}); err != nil {
		return "", err
	}
	if err := tf.close(true); err != nil {
		return "", err
	}
	return dir, nil
}

// traceFile streams a run's event log into its job directory as the JSON
// array json.Encoder with SetIndent("", "  ") makes of the records. It
// writes under a temporary name that close renames to trace.json, so
// GET .../trace never serves half an array.
type traceFile struct {
	f   *os.File // nil once closed
	w   *bufio.Writer
	n   int   // records written
	err error // first encoding error
}

// createTraceFile opens the temporary file in dir, truncating what an
// interrupted earlier run left there.
func createTraceFile(dir string) (*traceFile, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(filepath.Join(dir, "trace.json.part"))
	if err != nil {
		return nil, err
	}
	return &traceFile{f: f, w: bufio.NewWriter(f)}, nil
}

// add is the run's Options.Trace: it writes one record.
func (t *traceFile) add(ev elastisim.TraceEvent) {
	b, err := json.MarshalIndent(ev, "  ", "  ")
	if err != nil {
		t.err = cmp.Or(t.err, err)
		return
	}
	if t.n == 0 {
		t.w.WriteString("[\n  ")
	} else {
		t.w.WriteString(",\n  ")
	}
	t.w.Write(b) // the writer keeps its first error for Flush
	t.n++
}

// close ends the array and closes the file. With keep it renames the
// file to trace.json; otherwise, or when the run logged nothing, it
// removes it. A nil or closed traceFile does nothing.
func (t *traceFile) close(keep bool) error {
	if t == nil || t.f == nil {
		return nil
	}
	tmp := t.f.Name()
	if t.n > 0 {
		t.w.WriteString("\n]\n")
	}
	err := cmp.Or(t.err, t.w.Flush(), t.f.Close())
	t.f = nil
	if !keep || t.n == 0 || err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, filepath.Join(filepath.Dir(tmp), "trace.json"))
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
