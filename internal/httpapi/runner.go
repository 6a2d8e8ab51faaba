package httpapi

import (
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
			dir, werr := s.writeArtifacts(job.ID, session, cfg)
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
			_, _ = s.writeArtifacts(job.ID, session, cfg)
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
	return s.writeArtifacts(job.ID, session, cfg)
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
// trace.json when the config enabled event tracing. It returns the
// artifact directory. Called both at completion and — with a partial
// result — on cancel and shutdown.
func (s *Server) writeArtifacts(id string, session *elastisim.Session, cfg elastisim.Config) (string, error) {
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
	if cfg.Options.Trace && len(res.Trace) > 0 {
		if err := writeFile(filepath.Join(dir, "trace.json"), func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(res.Trace)
		}); err != nil {
			return "", err
		}
	}
	return dir, nil
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
