package main

import (
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metricDef describes one reported number. The two tables below are the
// source of truth BENCHMARK.json is checked against (TestManifestMatches).
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: tolerated worsening as a share of the parent's median
	// Exact marks per-layer counts that are a pure function of the seed:
	// -check requires them to repeat exactly.
	Exact bool
}

// endToEnd is measured with tracing off; every workload reports every one.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op_latency_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "events_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_s_per_op", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "alloc_mb_per_op", Unit: "MB", Better: "lower", Bound: 0.15},
	{Name: "live_heap_mb", Unit: "MB", Better: "lower", Bound: 0.15},
}

// perLayer is reported by the traced pass; the prefix is the layer. A
// metric a workload does not exercise reads 0 there.
var perLayer = []metricDef{
	{Name: "bench.ops", Unit: "count", Better: "higher"},
	{Name: "bench.failed_ops", Unit: "count", Better: "lower", Exact: true},

	{Name: "des.events_fired", Unit: "count", Better: "lower", Exact: true},
	{Name: "des.events_scheduled", Unit: "count", Better: "lower", Exact: true},
	{Name: "des.events_cancelled", Unit: "count", Better: "lower", Exact: true},
	{Name: "des.cancel_ratio", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "des.peak_queue", Unit: "count", Better: "lower", Exact: true},
	{Name: "des.replay_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "des.share_est", Unit: "ratio", Better: "lower"},

	{Name: "fluid.solves", Unit: "count", Better: "lower", Exact: true},
	{Name: "fluid.solved_activities", Unit: "count", Better: "lower", Exact: true},
	{Name: "fluid.activities_per_solve", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "fluid.replay_ns_per_activity", Unit: "ns", Better: "lower"},
	{Name: "fluid.share_est", Unit: "ratio", Better: "lower"},

	{Name: "platform.replay_ns_per_alloc", Unit: "ns", Better: "lower"},
	{Name: "platform.share_est", Unit: "ratio", Better: "lower"},

	{Name: "expr.compile_us", Unit: "us", Better: "lower"},
	{Name: "expr.eval_ns", Unit: "ns", Better: "lower"},

	{Name: "sched.invocations", Unit: "count", Better: "lower", Exact: true},
	{Name: "sched.invocations_elided", Unit: "count", Better: "higher", Exact: true},
	{Name: "sched.decisions_applied", Unit: "count", Better: "higher", Exact: true},
	{Name: "sched.decisions_rejected", Unit: "count", Better: "lower", Exact: true},
	{Name: "sched.busy_s", Unit: "s", Better: "lower"},
	{Name: "sched.share", Unit: "ratio", Better: "lower"},
	{Name: "sched.call_us_p50", Unit: "us", Better: "lower"},
	{Name: "sched.call_us_p95", Unit: "us", Better: "lower"},
	{Name: "sched.mean_pending", Unit: "count", Better: "lower", Exact: true},
	{Name: "sched.mean_running", Unit: "count", Better: "higher", Exact: true},
	{Name: "sched.probe_s", Unit: "s", Better: "lower"},
	{Name: "sched.probe_ratio", Unit: "ratio", Better: "lower"},

	{Name: "core.build_s", Unit: "s", Better: "lower"},
	{Name: "core.reconfigurations", Unit: "count", Better: "higher", Exact: true},
	{Name: "core.requeues", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.self_s_est", Unit: "s", Better: "lower"},

	{Name: "failure.node_failures", Unit: "count", Better: "lower", Exact: true},
	{Name: "failure.node_repairs", Unit: "count", Better: "lower", Exact: true},

	{Name: "job.generate_s", Unit: "s", Better: "lower"},
	{Name: "job.marshal_mb", Unit: "MB", Better: "lower", Exact: true},
	{Name: "job.parse_s", Unit: "s", Better: "lower"},

	{Name: "metrics.records", Unit: "count", Better: "lower", Exact: true},
	{Name: "metrics.gantt_segments", Unit: "count", Better: "lower", Exact: true},
	{Name: "metrics.export_s", Unit: "s", Better: "lower"},
	{Name: "viz.gantt_s", Unit: "s", Better: "lower"},

	{Name: "telemetry.events", Unit: "count", Better: "lower", Exact: true},
	{Name: "telemetry.sink_busy_s", Unit: "s", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},

	{Name: "elastisim.parse_config_ms", Unit: "ms", Better: "lower"},
	{Name: "elastisim.direct_run_ms_p50", Unit: "ms", Better: "lower"},

	{Name: "httpapi.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "httpapi.submit_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "httpapi.sse_first_event_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "httpapi.sse_done_lag_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "httpapi.result_fetch_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "httpapi.result_bytes", Unit: "count", Better: "lower", Exact: true},
	{Name: "httpapi.session_latency_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "httpapi.sessions_per_s", Unit: "1/s", Better: "higher"},

	{Name: "jobqueue.queue_wait_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "jobqueue.run_ms_p50", Unit: "ms", Better: "lower"},

	{Name: "distwork.journal_fsyncs", Unit: "count", Better: "lower"},
	{Name: "distwork.journal_fsync_s", Unit: "s", Better: "lower"},
	{Name: "distwork.fsync_share", Unit: "ratio", Better: "lower"},
	{Name: "distwork.journal_bytes", Unit: "count", Better: "lower"},
	{Name: "distwork.replay_claim_finish_us", Unit: "us", Better: "lower"},
	{Name: "distwork.replay_journaled_claim_finish_us", Unit: "us", Better: "lower"},

	{Name: "experiments.open_grid_s", Unit: "s", Better: "lower"},
	{Name: "experiments.cell_run_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "experiments.coord_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "experiments.emit_csv_s", Unit: "s", Better: "lower"},
	{Name: "experiments.cells_per_s", Unit: "1/s", Better: "higher"},

	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.peak_heap_inuse_mb", Unit: "MB", Better: "lower"},
	{Name: "runtime.mallocs_per_event", Unit: "ratio", Better: "lower"},
}

// sample is one reported value with the number of observations behind it.
type sample struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// metricSet collects values by name; units come from the tables above.
type metricSet map[string]sample

func (m metricSet) set(name string, v float64, n int) { m[name] = sample{Value: v, N: n} }

// resolve returns one sample per definition, in table order, filling the
// unit and leaving metrics the workload did not produce at 0.
func (m metricSet) resolve(defs []metricDef) metricSet {
	out := make(metricSet, len(defs))
	for _, d := range defs {
		s := m[d.Name]
		s.Unit = d.Unit
		out[d.Name] = s
	}
	return out
}

func seconds(d time.Duration) float64 { return d.Seconds() }
func millis(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }
func micros(d time.Duration) float64  { return float64(d) / float64(time.Microsecond) }

const mb = 1 << 20

// quantile is the nearest-rank q-quantile of xs (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func durations(ds []time.Duration, conv func(time.Duration) float64) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = conv(d)
	}
	return out
}

// usage is what one timed section cost the process.
type usage struct {
	wall    time.Duration
	cpu     time.Duration // user+sys, whole process
	alloc   uint64        // bytes allocated
	mallocs uint64
	gcs     uint32
	gcPause time.Duration
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// meter starts measuring; the returned function stops and reports. The
// wall clock is read innermost so the MemStats reads stay outside it.
func meter() func() usage {
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuTime()
	t0 := time.Now()
	return func() usage {
		wall := time.Since(t0)
		cpu := cpuTime() - c0
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		return usage{
			wall: wall, cpu: cpu,
			alloc:   m1.TotalAlloc - m0.TotalAlloc,
			mallocs: m1.Mallocs - m0.Mallocs,
			gcs:     m1.NumGC - m0.NumGC,
			gcPause: time.Duration(m1.PauseTotalNs - m0.PauseTotalNs),
		}
	}
}

// liveHeap reads what survives collection. It collects twice because a
// sync.Pool hands its contents to the next cycle before dropping them, and
// encoding/json pools buffers as large as the last document it wrote.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}
