package elastisim

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/job"
	"repro/internal/telemetry"
)

// telemetryRun repeats the equivalence scenario with a full telemetry
// stack attached: Chrome + JSONL sinks and the scheduler audit log.
func telemetryRun(t *testing.T) (*Result, string, []byte, *bytes.Buffer, *bytes.Buffer, *bytes.Buffer) {
	t.Helper()
	var chrome, jsonl, audit bytes.Buffer
	tracer := NewTracer(NewChromeTraceSink(&chrome), NewJSONLTraceSink(&jsonl))
	auditLog := NewAuditLog(&audit)
	tracer.SetAudit(auditLog)

	res, trace, csv := equivalenceRunOpts(t, Options{
		Trace:     true,
		Telemetry: tracer,
	})
	if err := tracer.Close(); err != nil {
		t.Fatalf("closing tracer: %v", err)
	}
	if err := auditLog.Close(); err != nil {
		t.Fatalf("closing audit log: %v", err)
	}
	return res, trace, csv, &chrome, &jsonl, &audit
}

// TestTelemetryDoesNotChangeOutputs pins the zero-interference invariant:
// attaching the full telemetry stack must not move a single simulated
// byte. The trace is compared at exact float precision (%b), so even a
// one-ulp divergence fails.
func TestTelemetryDoesNotChangeOutputs(t *testing.T) {
	_, offTrace, offCSV := equivalenceRunOpts(t, Options{Trace: true})
	_, onTrace, onCSV, _, _, _ := telemetryRun(t)

	if offTrace != onTrace {
		t.Errorf("event log diverges with telemetry attached:\n%s", firstDiff(offTrace, onTrace))
	}
	if !bytes.Equal(offCSV, onCSV) {
		t.Errorf("jobs CSV diverges with telemetry attached")
	}
}

// TestChromeTraceCoversRun machine-validates the Chrome trace of the
// failure-heavy equivalence scenario: it parses, timestamps are
// non-decreasing per track, every span closes, and every job's lifetime
// [submit, end] is covered by its job track.
func TestChromeTraceCoversRun(t *testing.T) {
	res, _, _, chrome, _, _ := telemetryRun(t)

	stats, err := telemetry.ValidateChromeTrace(chrome.Bytes())
	if err != nil {
		t.Fatalf("invalid Chrome trace: %v", err)
	}
	if stats.Events == 0 {
		t.Fatal("empty trace")
	}
	for _, k := range stats.SortedTrackKeys() {
		if b := stats.Tracks[k]; b.OpenSpans != 0 {
			t.Errorf("track pid=%d tid=%d: %d spans left open", k.Pid, k.Tid, b.OpenSpans)
		}
	}
	// Every job's track must span its recorded lifetime (timestamps in µs).
	const us = 1e6
	for _, r := range res.Records {
		b := stats.Tracks[telemetry.JobTrackKey(int(r.ID))]
		if b == nil {
			t.Errorf("job %d: no trace track", r.ID)
			continue
		}
		if b.FirstTS > r.Submit*us+1 {
			t.Errorf("job %d: track starts at %.0f µs, submitted at %.0f µs", r.ID, b.FirstTS, r.Submit*us)
		}
		if r.End >= 0 && b.LastTS < r.End*us-1 {
			t.Errorf("job %d: track ends at %.0f µs, job ended at %.0f µs", r.ID, b.LastTS, r.End*us)
		}
		if b.Spans == 0 {
			t.Errorf("job %d: track has no spans", r.ID)
		}
	}
	// The failure scenario must surface outage spans on node tracks.
	nodeSpans := 0
	for _, k := range stats.SortedTrackKeys() {
		if k.Pid == 2 {
			nodeSpans += stats.Tracks[k].Spans
		}
	}
	if nodeSpans == 0 {
		t.Error("no spans on any node track despite failures and allocations")
	}
}

// TestJSONLSummaryMatchesRecords cross-checks the JSONL trace's per-job
// span summary against the recorder: total wait and run time per job must
// agree (the trace and the metrics derive from the same events).
func TestJSONLSummaryMatchesRecords(t *testing.T) {
	res, _, _, _, jsonl, _ := telemetryRun(t)

	events, err := telemetry.ReadJSONL(jsonl)
	if err != nil {
		t.Fatal(err)
	}
	sums := telemetry.SummarizeJobSpans(events)
	byJob := map[int]telemetry.JobSpanSummary{}
	for _, s := range sums {
		byJob[s.Job] = s
	}
	for _, r := range res.Records {
		s, ok := byJob[int(r.ID)]
		if !ok {
			t.Errorf("job %d: missing from JSONL summary", r.ID)
			continue
		}
		// Jobs that never started have no run span; started jobs must.
		if r.Start >= 0 && s.Run <= 0 && r.End > r.Start {
			t.Errorf("job %d: started at %.1f but summary shows no run time", r.ID, r.Start)
		}
		if r.Start > r.Submit && s.Wait <= 0 {
			t.Errorf("job %d: waited %.1f s but summary shows no wait time", r.ID, r.Start-r.Submit)
		}
	}
}

// TestAuditLogRecordsDecisions checks the scheduler audit stream of the
// equivalence scenario: every invocation is recorded with queue state, and
// the applied-decision count matches the engine's.
func TestAuditLogRecordsDecisions(t *testing.T) {
	res, _, _, _, _, audit := telemetryRun(t)

	var recs []telemetry.AuditRecord
	for dec := json.NewDecoder(audit); dec.More(); {
		var r telemetry.AuditRecord
		if err := dec.Decode(&r); err != nil {
			t.Fatalf("audit record %d: %v", len(recs)+1, err)
		}
		recs = append(recs, r)
	}
	if uint64(len(recs)) != res.Invocations {
		t.Fatalf("audit has %d records, engine ran %d invocations", len(recs), res.Invocations)
	}
	applied := uint64(0)
	for i, r := range recs {
		if r.Invocation != uint64(i+1) {
			t.Fatalf("record %d: invocation %d out of order", i, r.Invocation)
		}
		if r.QueueDepth < 0 || r.FreeNodes < 0 || r.FreeNodes > 32 {
			t.Errorf("record %d: implausible cluster state: %+v", i, r)
		}
		for _, d := range r.Decisions {
			if d.Applied {
				applied++
			} else if d.Reason == "" {
				t.Errorf("record %d: rejected decision without a reason", i)
			}
		}
	}
	if applied != res.Decisions {
		t.Errorf("audit shows %d applied decisions, engine applied %d", applied, res.Decisions)
	}
	if res.Telemetry.Scheduler.Invocations != res.Invocations {
		t.Errorf("snapshot invocations %d != engine invocations %d",
			res.Telemetry.Scheduler.Invocations, res.Invocations)
	}
}

// TestSnapshotIsPopulated checks the self-profiling artifact of a real run
// carries all counter groups.
func TestSnapshotIsPopulated(t *testing.T) {
	res, _, _ := equivalenceRunOpts(t, Options{Trace: true})
	s := res.Telemetry
	if s.Runs != 1 || s.Jobs != 60 {
		t.Errorf("runs/jobs: %d/%d", s.Runs, s.Jobs)
	}
	if s.Kernel.Scheduled == 0 || s.Kernel.Fired == 0 || s.Kernel.PeakQueue == 0 {
		t.Errorf("kernel counters empty: %+v", s.Kernel)
	}
	if s.Kernel.Fired > s.Kernel.Scheduled {
		t.Errorf("fired %d > scheduled %d", s.Kernel.Fired, s.Kernel.Scheduled)
	}
	if s.Solver.Solves == 0 {
		t.Errorf("solver counters empty: %+v", s.Solver)
	}
	if s.Scheduler.Invocations == 0 || s.Scheduler.Applied == 0 || len(s.Scheduler.ByKind) == 0 {
		t.Errorf("scheduler counters empty: %+v", s.Scheduler)
	}
	if s.Scheduler.ByKind["start"] == 0 {
		t.Errorf("no start decisions recorded: %v", s.Scheduler.ByKind)
	}
	// StripWall must leave only deterministic fields.
	stripped := s.StripWall()
	if stripped.Wall != (telemetry.WallStats{}) || stripped.Mem != (telemetry.MemStats{}) {
		t.Error("StripWall left wall/mem data behind")
	}
	if stripped.Kernel != s.Kernel {
		t.Error("StripWall altered deterministic counters")
	}
}

// BenchmarkRunTelemetryOff is the regression guard for the disabled
// telemetry path: the hooks compile to nil-receiver no-ops, so this
// benchmark must stay within noise of the pre-telemetry baseline.
func BenchmarkRunTelemetryOff(b *testing.B) {
	benchmarkRun(b, Options{})
}

// BenchmarkRunTelemetryChrome measures the full-tracing overhead for
// comparison (expected to cost, but not to change results).
func BenchmarkRunTelemetryChrome(b *testing.B) {
	var sink bytes.Buffer
	tracer := NewTracer(NewChromeTraceSink(&sink))
	defer tracer.Close()
	benchmarkRun(b, Options{Telemetry: tracer})
}

func benchmarkRun(b *testing.B, opts Options) {
	b.Helper()
	wl, err := GenerateWorkload(WorkloadConfig{
		Seed: 11, Count: 60,
		Arrival:      job.Arrival{Kind: job.ArrivalPoisson, Rate: 0.05},
		Nodes:        [2]int{1, 16},
		MachineNodes: 32,
		NodeSpeed:    100e9,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(Config{
			Platform:  HomogeneousPlatform("bench", 32, 100e9, 10e9, 40e9, 40e9),
			Workload:  wl,
			Algorithm: NewAdaptive(),
			Options:   opts,
		}); err != nil {
			b.Fatal(err)
		}
	}
}
