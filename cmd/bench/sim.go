package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"runtime"
	"sync"
	"time"

	"repro/elastisim"
	"repro/internal/job"
	"repro/internal/sched"
	"repro/internal/telemetry"
)

// schedProbe wraps the scheduling algorithm: one span per Schedule call
// and the queue depths each call saw.
type schedProbe struct {
	inner            sched.Algorithm
	log              *spanLog
	parent, op       int
	pending, running int
}

func (p *schedProbe) Name() string { return p.inner.Name() }

func (p *schedProbe) Schedule(inv *sched.Invocation) []sched.Decision {
	p.pending += len(inv.Pending)
	p.running += len(inv.Running)
	t0 := time.Now()
	ds := p.inner.Schedule(inv)
	p.log.add("sched.schedule", p.parent, p.op, t0, time.Now())
	return ds
}

// WantsFreeList forwards the wrapped algorithm's answer, so the engine
// materialises the free list exactly when it would without the probe.
func (p *schedProbe) WantsFreeList() bool {
	u, ok := p.inner.(sched.FreeListUser)
	return ok && u.WantsFreeList()
}

// countingSink is the cheapest possible telemetry consumer: what the
// traced run costs beyond it is the engine's own cost of emitting.
// Events number in the millions, so they are summed, not kept as spans.
type countingSink struct {
	events uint64
	busy   time.Duration
}

func (s *countingSink) Emit(telemetry.Event) {
	t0 := time.Now()
	s.events++
	s.busy += time.Since(t0)
}

func (s *countingSink) Close() error { return nil }

// heapSampler polls the heap every 10 ms while a traced op runs.
type heapSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			var m runtime.MemStats
			runtime.ReadMemStats(&m)
			h.peak = max(h.peak, m.HeapInuse)
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// peakBytes stops the sampler and returns the highest HeapInuse it saw.
func (h *heapSampler) peakBytes() uint64 {
	close(h.stop)
	h.wg.Wait()
	return h.peak
}

// simOp is one generate → NewSession → Run → digest pass.
type simOp struct {
	generate, build time.Duration
	use             usage // around Session.Run only
	cfg             elastisim.Config
	session         *elastisim.Session
	res             *elastisim.Result
	digest          string
	// traced pass only
	probe    *schedProbe
	sink     *countingSink
	peakHeap uint64
}

// resultDigest hashes everything deterministic a run produced: the
// canonical result document and the telemetry counters with wall and heap
// fields stripped.
func resultDigest(res *elastisim.Result) (string, error) {
	h := sha256.New()
	if err := res.WriteJSON(h); err != nil {
		return "", err
	}
	if err := json.NewEncoder(h).Encode(res.Telemetry.StripWall()); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// prepare is the set-up of one op: generate the inputs, build the session.
func (sp simSpec) prepare(seed uint64, log *spanLog, opID int) (*simOp, error) {
	o := &simOp{}
	t0 := time.Now()
	cfg, err := sp.config(seed)
	if err != nil {
		return nil, err
	}
	o.generate = time.Since(t0)
	log.add("job.generate", -1, opID, t0, t0.Add(o.generate))
	if log != nil {
		o.probe = &schedProbe{inner: cfg.Algorithm, log: log, op: opID}
		o.sink = &countingSink{}
		cfg.Algorithm = o.probe
		cfg.Options.Telemetry = elastisim.NewTracer(o.sink)
	}
	t0 = time.Now()
	o.session, err = elastisim.NewSession(cfg)
	o.build = time.Since(t0)
	log.add("core.build", -1, opID, t0, t0.Add(o.build))
	o.cfg = cfg
	return o, err
}

// run is the op itself: Session.Run, then the digest of what it produced.
func (o *simOp) run(log *spanLog, opID int) (err error) {
	runtime.GC()
	var sampler *heapSampler
	if log != nil {
		sampler = startHeapSampler()
		o.probe.parent = log.begin("elastisim.run", -1, opID)
	}
	stop := meter()
	o.res, err = o.session.Run(context.Background())
	o.use = stop()
	if log != nil {
		log.end(o.probe.parent)
		o.peakHeap = sampler.peakBytes()
	}
	if err != nil {
		return err
	}
	o.digest, err = resultDigest(o.res)
	return err
}

// simWorkload runs one simSpec as a benchmark workload: every round is
// one op on freshly generated inputs.
type simWorkload struct {
	spec simSpec
	want string // digest of the warm-up op; every later op must match it
	ops  int
}

func (w *simWorkload) digest() string { return w.want }

func (w *simWorkload) warmup(e *env) error {
	o, err := w.spec.prepare(e.seed, nil, 0)
	if err == nil {
		err = o.run(nil, 0)
	}
	if err != nil {
		return err
	}
	w.want = o.digest
	return nil
}

func (w *simWorkload) setup(e *env) (time.Duration, error) {
	o, err := w.spec.prepare(e.seed, nil, 0)
	if err != nil {
		return 0, err
	}
	return o.generate + o.build, nil
}

func (w *simWorkload) round(e *env, log *spanLog) (*roundStats, error) {
	w.ops++
	o, err := w.spec.prepare(e.seed, log, w.ops)
	if err == nil {
		err = o.run(log, w.ops)
	}
	if err != nil {
		return nil, err
	}
	r := &roundStats{
		setup: o.generate + o.build, ops: 1, latency: []time.Duration{o.use.wall},
		events: o.res.Events, use: o.use, keep: o,
	}
	if o.digest != w.want {
		r.failed = 1
	}
	return r, nil
}

// kernelCounts reports the deterministic simulator counters of one or
// more runs; n is the number of runs they were summed over.
func kernelCounts(m metricSet, s telemetry.Snapshot, n int) {
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	m.set("des.events_fired", float64(s.Kernel.Fired), n)
	m.set("des.events_scheduled", float64(s.Kernel.Scheduled), n)
	m.set("des.events_cancelled", float64(s.Kernel.Cancelled), n)
	m.set("des.cancel_ratio", ratio(s.Kernel.Cancelled, s.Kernel.Fired), n)
	m.set("des.peak_queue", float64(s.Kernel.PeakQueue), n)
	m.set("fluid.solves", float64(s.Solver.Solves), n)
	m.set("fluid.solved_activities", float64(s.Solver.SolvedActivities), n)
	m.set("fluid.activities_per_solve", ratio(s.Solver.SolvedActivities, s.Solver.Solves), n)
	m.set("sched.invocations", float64(s.Scheduler.Invocations), n)
	m.set("sched.invocations_elided", float64(s.Scheduler.Elided), n)
	m.set("sched.decisions_applied", float64(s.Scheduler.Applied), n)
	m.set("sched.decisions_rejected", float64(s.Scheduler.Rejected), n)
	m.set("core.reconfigurations", float64(s.Scheduler.ByKind[sched.DecisionResize.String()]), n)
}

// layers attributes a run to its layers from three sources: the counters
// of the untraced op, the spans of the traced op, and isolated replays.
func (w *simWorkload) layers(e *env, plain, traced *roundStats, log *spanLog) (metricSet, error) {
	po, to := plain.keep.(*simOp), traced.keep.(*simOp)
	res, wall := po.res, seconds(po.use.wall)
	snap := res.Telemetry
	m := metricSet{}
	kernelCounts(m, snap, 1)

	calls := log.durationsOf("sched.schedule")
	busy := sum(calls)
	us := durations(calls, micros)
	m.set("sched.busy_s", seconds(busy), len(calls))
	m.set("sched.share", seconds(busy)/seconds(to.use.wall), len(calls))
	m.set("sched.call_us_p50", quantile(us, 0.5), len(calls))
	m.set("sched.call_us_p95", quantile(us, 0.95), len(calls))
	if n := len(calls); n > 0 {
		m.set("sched.mean_pending", float64(to.probe.pending)/float64(n), n)
		m.set("sched.mean_running", float64(to.probe.running)/float64(n), n)
	}
	probe := time.Duration(to.res.Telemetry.Wall.SchedulerNS)
	m.set("sched.probe_s", seconds(probe), 1)
	if probe > 0 {
		m.set("sched.probe_ratio", seconds(busy)/seconds(probe), 1)
	}

	desNS := replayDES(snap.Kernel)
	m.set("des.replay_ns_per_event", desNS, 1)
	m.set("des.share_est", desNS*1e-9*float64(snap.Kernel.Fired)/wall, 1)
	size := 0
	if snap.Solver.Solves > 0 {
		size = int(float64(snap.Solver.SolvedActivities)/float64(snap.Solver.Solves) + 0.5)
	}
	fluidNS := replayFluid(max(size, 1), snap.Solver.SolvedActivities)
	m.set("fluid.replay_ns_per_activity", fluidNS, 1)
	m.set("fluid.share_est", fluidNS*1e-9*float64(snap.Solver.SolvedActivities)/wall, 1)
	width, started := 0, 0
	for _, rec := range res.Records {
		if rec.InitialNodes > 0 {
			width += rec.InitialNodes
			started++
		}
	}
	platNS, err := replayPlatform(w.spec.nodes, snap.Scheduler.Applied, width/max(started, 1))
	if err != nil {
		return nil, err
	}
	m.set("platform.replay_ns_per_alloc", platNS, 1)
	m.set("platform.share_est", platNS*1e-9*float64(snap.Scheduler.Applied)/wall, 1)

	m.set("core.build_s", seconds(po.build), 1)
	m.set("core.requeues", float64(res.Summary.Requeues), 1)
	replays := (desNS*float64(snap.Kernel.Fired) + fluidNS*float64(snap.Solver.SolvedActivities) + platNS*float64(snap.Scheduler.Applied)) * 1e-9
	m.set("core.self_s_est", seconds(to.use.wall-busy-to.sink.busy)-replays, 1)

	repairs := 0
	for _, o := range res.Recorder.Outages() {
		if o.End >= 0 {
			repairs++
		}
	}
	m.set("failure.node_failures", float64(res.Summary.NodeFailures), 1)
	m.set("failure.node_repairs", float64(repairs), 1)

	compileUS, evalNS, nExpr, err := exprCosts(po.cfg.Workload)
	if err != nil {
		return nil, err
	}
	m.set("expr.compile_us", compileUS, nExpr)
	m.set("expr.eval_ns", evalNS, nExpr)

	m.set("job.generate_s", seconds(po.generate), 1)
	t0 := time.Now()
	doc, err := json.Marshal(po.cfg.Workload)
	if err != nil {
		return nil, err
	}
	log.add("job.marshal", -1, 0, t0, time.Now())
	m.set("job.marshal_mb", float64(len(doc))/mb, 1)
	t0 = time.Now()
	if _, err := job.ParseWorkload(doc, w.spec.nodes); err != nil {
		return nil, err
	}
	m.set("job.parse_s", seconds(time.Since(t0)), 1)
	log.add("job.parse", -1, 0, t0, time.Now())

	m.set("metrics.records", float64(len(res.Records)), 1)
	m.set("metrics.gantt_segments", float64(len(res.Recorder.Gantt())), 1)
	t0 = time.Now()
	if err := res.WriteJSON(io.Discard); err != nil {
		return nil, err
	}
	if err := res.Recorder.WriteJobsCSV(io.Discard); err != nil {
		return nil, err
	}
	m.set("metrics.export_s", seconds(time.Since(t0)), 1)
	log.add("metrics.export", -1, 0, t0, time.Now())
	t0 = time.Now()
	if err := res.WriteGanttSVG(io.Discard, "bench"); err != nil {
		return nil, err
	}
	m.set("viz.gantt_s", seconds(time.Since(t0)), 1)
	log.add("viz.gantt", -1, 0, t0, time.Now())

	m.set("telemetry.events", float64(to.sink.events), 1)
	m.set("telemetry.sink_busy_s", seconds(to.sink.busy), int(to.sink.events))
	m.set("trace.overhead_ratio", seconds(to.use.wall)/wall, 1)

	runtimeCounts(m, po.use, res.Events)
	m.set("runtime.peak_heap_inuse_mb", float64(to.peakHeap)/mb, 1)
	return m, nil
}

// runtimeCounts reports what the Go runtime did during an untraced round.
func runtimeCounts(m metricSet, u usage, events uint64) {
	m.set("runtime.gc_cycles", float64(u.gcs), 1)
	m.set("runtime.gc_pause_ms", millis(u.gcPause), 1)
	m.set("runtime.mallocs_per_event", float64(u.mallocs)/float64(max(events, 1)), 1)
}
