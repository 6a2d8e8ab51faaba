// Command elastisimd runs the simulator as a service: a REST API where
// each submitted configuration becomes a journaled job executed by a
// worker pool, observable live over SSE and steerable with
// pause/resume/step/cancel.
//
// Usage:
//
//	elastisimd [-addr 127.0.0.1:9178] [-data elastisim-data]
//	           [-workers 0] [-lease 30s] [-group-commit 0]
//	           [-access-log path] [-flight 512]
//
// State lives under -data: jobs/journal.jsonl, one file, records every
// job transition (a restarted daemon recovers queued and completed jobs
// from it, re-running only work that was interrupted), and jobs/<id>/
// holds each job's artifacts (result.json, gantt.svg, trace.json). A
// journal an older build split across several files is refused at start.
//
// Observability (see README "Monitoring elastisimd"):
//
//	GET /metrics   Prometheus text exposition: job queue (states, claims,
//	               steals, lease expirations, journal fsync/compaction/
//	               error counters), worker pool, HTTP, and
//	               simulation-kernel series
//	GET /healthz   liveness (200 while the process serves)
//	GET /readyz    readiness (503 once the graceful drain begins)
//
// A flight recorder keeps the last -flight system events (job
// transitions, session lifecycle, 5xx responses) in memory; SIGQUIT dumps
// it with a metrics snapshot to -data/postmortem/ without stopping the
// daemon, and a simulation that dies of an internal engine panic leaves
// jobs/<id>/postmortem.json automatically.
//
// On SIGINT/SIGTERM the daemon flips /readyz to 503, interrupts running
// simulations between event slices, journals their partial progress so
// the next start re-runs them, and flushes the journal.
//
// The API is documented in the README ("Running as a service"):
//
//	POST /v1/sessions              GET /v1/sessions
//	GET  /v1/sessions/{id}         GET /v1/sessions/{id}/events   (SSE)
//	POST /v1/sessions/{id}/pause   POST /v1/sessions/{id}/resume
//	POST /v1/sessions/{id}/step    POST /v1/sessions/{id}/cancel
//	GET  /v1/sessions/{id}/result  GET /v1/sessions/{id}/gantt.svg
//	GET  /v1/sessions/{id}/trace
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/httpapi"
	"repro/internal/jobqueue"
	"repro/internal/obs"
)

func main() { cli.Main("elastisimd", run) }

func run(ctx context.Context) error {
	var (
		addr      = flag.String("addr", "127.0.0.1:9178", "listen address")
		dataDir   = flag.String("data", "elastisim-data", "state directory (journal + job artifacts)")
		workers   = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		lease     = flag.Duration("lease", 30*time.Second, "job lease duration (claims lapse without heartbeats)")
		accessLog = flag.String("access-log", "", "append one JSON line per request to this file (empty = off)")
		flightN   = flag.Int("flight", 512, "flight recorder ring size (0 = disabled)")
		groupCmt  = flag.Duration("group-commit", 0, "batch journal fsyncs into one flush per window (0 = fsync every transition)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		flag.Usage()
		return cli.ErrUsage
	}

	reg := obs.NewRegistry()
	var flight *obs.FlightRecorder
	if *flightN > 0 {
		flight = obs.NewFlightRecorder(*flightN)
	}
	registerProcessGauges(reg)

	if err := os.MkdirAll(filepath.Join(*dataDir, "jobs"), 0o755); err != nil {
		return err
	}
	queue, err := jobqueue.Open(filepath.Join(*dataDir, "jobs", "journal.jsonl"), jobqueue.Options{
		Lease:       *lease,
		Metrics:     reg,
		Flight:      flight,
		GroupCommit: *groupCmt,
	})
	if err != nil {
		return err
	}
	server := httpapi.New(queue, *dataDir)
	server.Observe(reg, flight)
	if *accessLog != "" {
		f, err := os.OpenFile(*accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			queue.Close()
			return err
		}
		defer f.Close()
		server.SetAccessLog(f)
	}
	pool := jobqueue.NewPool(queue, *workers, server.RunJob)

	poolCtx, stopPool := context.WithCancel(context.Background())
	defer stopPool()
	pool.Start(poolCtx)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		queue.Close()
		return err
	}
	// A client that never finishes its request headers is dropped rather
	// than holding a connection forever. There is no WriteTimeout: SSE
	// streams stay open for the whole run.
	httpSrv := &http.Server{Handler: server.Handler(), ReadHeaderTimeout: 10 * time.Second}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	// SIGQUIT dumps the flight recorder and a metrics snapshot to
	// -data/postmortem/ and keeps serving — a non-destructive "what is the
	// daemon doing" probe for a live process.
	quitCh := make(chan os.Signal, 1)
	signal.Notify(quitCh, syscall.SIGQUIT)
	defer signal.Stop(quitCh)
	go func() {
		for range quitCh {
			path, derr := flight.DumpFile(filepath.Join(*dataDir, "postmortem"), "sigquit", "operator-requested dump (SIGQUIT)", reg)
			if derr != nil {
				fmt.Fprintf(os.Stderr, "elastisimd: postmortem dump failed: %v\n", derr)
				continue
			}
			fmt.Fprintf(os.Stderr, "elastisimd: postmortem written to %s\n", path)
		}
	}()

	counts := queue.Counts()
	recovered := counts[jobqueue.StatePending]
	kept := counts[jobqueue.StateDone] + counts[jobqueue.StateFailed] + counts[jobqueue.StateCancelled]
	fmt.Fprintf(os.Stderr, "elastisimd: listening on http://%s (%d workers, %d queued, %d finished jobs recovered; /metrics /healthz /readyz)\n",
		ln.Addr(), pool.Workers(), recovered, kept)
	flight.Recordf("daemon", "listening on %s (%d workers, %d queued recovered)", ln.Addr(), pool.Workers(), recovered)

	select {
	case err := <-serveErr:
		stopPool()
		pool.Wait()
		queue.Close()
		return err
	case <-ctx.Done():
	}

	// Graceful shutdown. Flip readiness first and drain the worker pool
	// while HTTP is still serving, so load balancers see /readyz go 503
	// (and SSE subscribers see their streams settle) during the drain;
	// each worker journals its job's partial progress and requeues it.
	// Only then stop the listener and flush the journal.
	fmt.Fprintln(os.Stderr, "elastisimd: shutting down, draining running sessions")
	server.SetDraining()
	flight.Record("daemon", "shutdown signal received, draining")
	stopPool()
	pool.Wait()
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	serr := httpSrv.Shutdown(shutCtx)
	if errors.Is(serr, context.DeadlineExceeded) {
		serr = httpSrv.Close()
	}
	if cerr := queue.Close(); serr == nil {
		serr = cerr
	}
	if serr != nil {
		return serr
	}
	return ctx.Err()
}

// registerProcessGauges exports process vitals sampled at scrape time.
func registerProcessGauges(reg *obs.Registry) {
	start := time.Now()
	reg.Help("elastisimd_uptime_seconds", "Seconds since the daemon started.")
	reg.Gauge("elastisimd_uptime_seconds", func() float64 { return time.Since(start).Seconds() })
	reg.Help("elastisimd_goroutines", "Live goroutines in the daemon process.")
	reg.Gauge("elastisimd_goroutines", func() float64 { return float64(runtime.NumGoroutine()) })
	reg.Help("elastisimd_heap_bytes", "Bytes of allocated heap objects (runtime.MemStats.HeapAlloc).")
	reg.Gauge("elastisimd_heap_bytes", func() float64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc)
	})
}
