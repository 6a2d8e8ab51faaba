package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"
)

// TestNilTracerZeroAllocs pins the zero-overhead-when-disabled contract:
// every Tracer method on a nil receiver must allocate nothing. Variadic
// calls pass no args — that is exactly how instrumentation sites call them
// after an Enabled() guard.
func TestNilTracerZeroAllocs(t *testing.T) {
	var tr *Tracer
	track := JobTrack(7)
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	allocs := testing.AllocsPerRun(100, func() {
		tr.Begin(track, "run", 1.0)
		tr.End(track, "run", 2.0)
		tr.Instant(track, "checkpoint", 1.5)
		tr.Counter(SchedulerTrack, "queue_depth", 1.0, 3)
		tr.Emit(Event{})
		_ = tr.Audit()
		_ = tr.Enabled()
	})
	if allocs != 0 {
		t.Fatalf("nil tracer allocated %.1f times per run; want 0", allocs)
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("nil tracer Close: %v", err)
	}
	var a *AuditLog
	allocs = testing.AllocsPerRun(100, func() {
		a.Record(AuditRecord{})
		_ = a.Records()
	})
	if allocs != 0 {
		t.Fatalf("nil audit log allocated %.1f times per run; want 0", allocs)
	}
}

// emitScenario drives a small fixed event sequence through a tracer.
func emitScenario(tr *Tracer) {
	j := JobTrack(0)
	n := NodeTrack(2)
	tr.Begin(j, "wait", 0)
	tr.End(j, "wait", 10)
	tr.Begin(j, "run", 10, Arg{Key: "nodes", Value: 4})
	tr.Begin(n, "job 0", 10)
	tr.Instant(j, "scheduling-point", 15)
	tr.Begin(j, "reconfigure", 15)
	tr.End(j, "reconfigure", 16)
	tr.End(n, "job 0", 20)
	tr.End(j, "run", 20, Arg{Key: "status", Value: "completed"})
	tr.Counter(SchedulerTrack, "queue_depth", 15, 1)
	tr.Instant(SchedulerTrack, "invoke", 15)
}

func TestChromeSinkValid(t *testing.T) {
	var buf bytes.Buffer
	sink := NewChromeSink(&buf)
	tr := New(sink)
	emitScenario(tr)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	stats, err := ValidateChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("invalid trace: %v\n%s", err, buf.String())
	}
	jt := stats.Tracks[JobTrackKey(0)]
	if jt == nil {
		t.Fatal("no job 0 track")
	}
	if jt.FirstTS != 0 || jt.LastTS != 20e6 {
		t.Errorf("job 0 bounds = [%g, %g] µs; want [0, 2e7]", jt.FirstTS, jt.LastTS)
	}
	if jt.Spans != 3 || jt.OpenSpans != 0 {
		t.Errorf("job 0 spans = %d open = %d; want 3 closed, 0 open", jt.Spans, jt.OpenSpans)
	}
	if nt := stats.Tracks[NodeTrackKey(2)]; nt == nil || nt.Spans != 1 {
		t.Errorf("node 2 track = %+v; want one span", nt)
	}
	if !strings.Contains(buf.String(), `"process_name"`) || !strings.Contains(buf.String(), `"thread_name"`) {
		t.Error("trace missing metadata events")
	}
}

func TestValidateChromeTraceRejects(t *testing.T) {
	cases := map[string]string{
		"not-array":     `{"name":"x"}`,
		"missing-ph":    `[{"name":"x","ts":1,"pid":1,"tid":1}]`,
		"missing-ts":    `[{"name":"x","ph":"B","pid":1,"tid":1}]`,
		"ts-regression": `[{"name":"a","ph":"i","ts":5,"pid":1,"tid":1},{"name":"b","ph":"i","ts":4,"pid":1,"tid":1}]`,
		"unbalanced-E":  `[{"name":"a","ph":"E","ts":1,"pid":1,"tid":1}]`,
		"bad-phase":     `[{"name":"a","ph":"Z","ts":1,"pid":1,"tid":1}]`,
	}
	for name, doc := range cases {
		if _, err := ValidateChromeTrace([]byte(doc)); err == nil {
			t.Errorf("%s: validation accepted invalid trace", name)
		}
	}
	// Different tracks may interleave out of global order.
	ok := `[{"name":"a","ph":"i","ts":5,"pid":1,"tid":1},{"name":"b","ph":"i","ts":4,"pid":1,"tid":2}]`
	if _, err := ValidateChromeTrace([]byte(ok)); err != nil {
		t.Errorf("per-track monotone trace rejected: %v", err)
	}
}

func TestJSONLRoundtripAndSummary(t *testing.T) {
	var buf bytes.Buffer
	tr := New(NewJSONLSink(&buf))
	emitScenario(tr)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 11 {
		t.Fatalf("read %d events; want 11", len(events))
	}
	if events[2].Args["nodes"] != float64(4) {
		t.Errorf("args roundtrip: got %v", events[2].Args)
	}
	sums := SummarizeJobSpans(events)
	if len(sums) != 1 {
		t.Fatalf("got %d job summaries; want 1", len(sums))
	}
	s := sums[0]
	if s.Job != 0 || s.Wait != 10 || s.Run != 10 || s.Reconfigure != 1 {
		t.Errorf("summary = %+v; want wait=10 run=10 reconfigure=1", s)
	}
	if s.SchedPoints != 1 || s.Reconfigs != 1 {
		t.Errorf("summary counts = %+v; want 1 scheduling point, 1 reconfig", s)
	}
}

func TestSnapshotAddStripDiff(t *testing.T) {
	a := Snapshot{
		Runs: 1, Jobs: 10,
		Kernel:    KernelStats{Scheduled: 100, Fired: 90, Cancelled: 10, Recycled: 5, PeakQueue: 30},
		Solver:    SolverStats{Solves: 40, SolvedActivities: 200},
		Scheduler: SchedulerStats{Invocations: 20, Applied: 15, Rejected: 2, ByKind: map[string]uint64{"start": 10, "resize": 5}},
		Wall:      WallStats{RunNS: 1e6},
		Mem:       MemStats{HeapAllocBytes: 1000, TotalAllocs: 50},
	}
	b := Snapshot{
		Runs: 2, Jobs: 5,
		Kernel:    KernelStats{Scheduled: 50, PeakQueue: 45},
		Scheduler: SchedulerStats{ByKind: map[string]uint64{"start": 1, "kill": 3}},
		Mem:       MemStats{HeapAllocBytes: 2000, TotalAllocs: 10},
	}
	sum := a
	sum.Scheduler.ByKind = map[string]uint64{"start": 10, "resize": 5} // fresh map: Add mutates
	sum.Add(b)
	if sum.Runs != 3 || sum.Kernel.Scheduled != 150 || sum.Kernel.PeakQueue != 45 {
		t.Errorf("Add: got %+v", sum)
	}
	if sum.Scheduler.ByKind["start"] != 11 || sum.Scheduler.ByKind["kill"] != 3 {
		t.Errorf("Add by_kind: got %v", sum.Scheduler.ByKind)
	}
	if sum.Mem.HeapAllocBytes != 2000 || sum.Mem.TotalAllocs != 60 {
		t.Errorf("Add mem: got %+v", sum.Mem)
	}

	stripped := sum.StripWall()
	if stripped.Wall != (WallStats{}) || stripped.Mem != (MemStats{}) {
		t.Errorf("StripWall left wall/mem data: %+v", stripped)
	}

	var js bytes.Buffer
	if err := sum.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSnapshot(&js)
	if err != nil {
		t.Fatal(err)
	}
	if back.Kernel != sum.Kernel || back.Solver != sum.Solver {
		t.Errorf("JSON roundtrip: got %+v want %+v", back, sum)
	}

	rows := Diff(a, sum)
	byName := map[string]DiffRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	r, ok := byName["kernel.scheduled"]
	if !ok || r.A != 100 || r.B != 150 || math.Abs(r.Change-0.5) > 1e-12 {
		t.Errorf("diff kernel.scheduled = %+v", r)
	}
	if _, ok := byName["scheduler.by_kind.kill"]; !ok {
		t.Error("diff missing scheduler.by_kind.kill (present only on one side)")
	}
}

// readAuditLog parses a JSONL audit stream back into records.
func readAuditLog(r io.Reader) ([]AuditRecord, error) {
	var out []AuditRecord
	dec := json.NewDecoder(r)
	for {
		var rec AuditRecord
		if err := dec.Decode(&rec); err == io.EOF {
			return out, nil
		} else if err != nil {
			return out, fmt.Errorf("telemetry: audit record %d: %w", len(out)+1, err)
		}
		out = append(out, rec)
	}
}

func TestAuditLogRoundtrip(t *testing.T) {
	var buf bytes.Buffer
	a := NewAuditLog(&buf)
	a.Record(AuditRecord{
		T: 12.5, Invocation: 1, Reasons: "submit", QueueDepth: 3, FreeNodes: 16,
		Decisions: []AuditDecision{
			{Kind: "start", Job: 0, NumNodes: 4, Applied: true},
			{Kind: "start", Job: 1, NumNodes: 32, Applied: false, Reason: "not enough free nodes"},
		},
	})
	a.Record(AuditRecord{T: 20, Invocation: 2, Reasons: "completion"})
	if a.Records() != 2 {
		t.Fatalf("Records() = %d; want 2", a.Records())
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := readAuditLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || len(recs[0].Decisions) != 2 {
		t.Fatalf("roundtrip: got %+v", recs)
	}
	if recs[0].Decisions[1].Reason != "not enough free nodes" {
		t.Errorf("rejection reason lost: %+v", recs[0].Decisions[1])
	}
}
