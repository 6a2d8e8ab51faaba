package metrics

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/des"
	"repro/internal/job"
)

func TestTimelineBasics(t *testing.T) {
	var tl Timeline
	tl.Add(0, 4)
	tl.Add(10, -2)
	tl.Add(20, 6)
	if tl.Current() != 8 {
		t.Errorf("Current = %v", tl.Current())
	}
	cases := []struct{ t, want float64 }{
		{-1, 0}, {0, 4}, {5, 4}, {10, 2}, {15, 2}, {20, 8}, {100, 8},
	}
	for _, tc := range cases {
		if got := tl.At(tc.t); got != tc.want {
			t.Errorf("At(%v) = %v, want %v", tc.t, got, tc.want)
		}
	}
}

func TestTimelineIntegral(t *testing.T) {
	var tl Timeline
	tl.Add(0, 4)
	tl.Add(10, -2) // value 2 on [10,20)
	tl.Add(20, 6)  // value 8 from 20
	if got := tl.Integral(0, 10); got != 40 {
		t.Errorf("Integral(0,10) = %v, want 40", got)
	}
	if got := tl.Integral(0, 20); got != 60 {
		t.Errorf("Integral(0,20) = %v, want 60", got)
	}
	if got := tl.Integral(5, 15); got != 30 {
		t.Errorf("Integral(5,15) = %v, want 30", got)
	}
	if got := tl.Integral(0, 25); got != 100 {
		t.Errorf("Integral(0,25) = %v, want 100", got)
	}
	if got := tl.Integral(25, 25); got != 0 {
		t.Errorf("empty integral = %v", got)
	}
	if got := tl.Mean(0, 20); got != 3 {
		t.Errorf("Mean(0,20) = %v, want 3", got)
	}
}

func TestTimelineSameTimestampMerges(t *testing.T) {
	var tl Timeline
	tl.Add(5, 3)
	tl.Add(5, 2)
	if tl.Len() != 1 {
		t.Errorf("Len = %d, want 1 (merged)", tl.Len())
	}
	if tl.At(5) != 5 {
		t.Errorf("At(5) = %v, want 5", tl.At(5))
	}
}

func TestTimelineOutOfOrderPanics(t *testing.T) {
	var tl Timeline
	tl.Add(5, 1)
	defer func() {
		if recover() == nil {
			t.Error("out-of-order Add did not panic")
		}
	}()
	tl.Add(4, 1)
}

func TestTimelineSetAndMax(t *testing.T) {
	var tl Timeline
	tl.Set(0, 3)
	tl.Set(10, 7)
	tl.Set(20, 1)
	if tl.Max(0, 30) != 7 {
		t.Errorf("Max = %v", tl.Max(0, 30))
	}
	if tl.Max(0, 9) != 3 {
		t.Errorf("Max(0,9) = %v", tl.Max(0, 9))
	}
}

func TestTimelineCSV(t *testing.T) {
	var tl Timeline
	tl.Add(0, 2)
	tl.Add(1.5, 1)
	var buf bytes.Buffer
	if err := tl.WriteCSV(&buf, "busy"); err != nil {
		t.Fatal(err)
	}
	want := "time,busy\n0,2\n1.5,3\n"
	if buf.String() != want {
		t.Errorf("CSV = %q, want %q", buf.String(), want)
	}
}

// Property: the integral over [0,T] equals the sum of deltas weighted by
// their remaining duration.
func TestTimelineIntegralProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := des.NewRNG(seed)
		var tl Timeline
		type delta struct{ t, v float64 }
		var deltas []delta
		now := 0.0
		for i := 0; i < 20; i++ {
			now += rng.Range(0, 5)
			v := rng.Range(-3, 3)
			tl.Add(now, v)
			deltas = append(deltas, delta{now, v})
		}
		horizon := now + 10
		want := 0.0
		for _, d := range deltas {
			want += d.v * (horizon - d.t)
		}
		got := tl.Integral(0, horizon)
		return math.Abs(got-want) < 1e-6*math.Max(1, math.Abs(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func makeJob(id int, typ job.Type) *job.Job {
	return &job.Job{ID: job.ID(id), Name: "", Type: typ}
}

func TestRecorderLifecycle(t *testing.T) {
	rec := NewRecorder(16)
	j := makeJob(0, job.Rigid)
	r := rec.JobSubmitted(j, j.Label(), 0)
	rec.JobStarted(r, 10, 4)
	rec.JobFinished(r, 110, StatusCompleted)
	if r.Wait() != 10 {
		t.Errorf("Wait = %v", r.Wait())
	}
	if r.Runtime() != 100 {
		t.Errorf("Runtime = %v", r.Runtime())
	}
	if r.Turnaround() != 110 {
		t.Errorf("Turnaround = %v", r.Turnaround())
	}
	if r.NodeSeconds != 400 {
		t.Errorf("NodeSeconds = %v", r.NodeSeconds)
	}
	s := rec.Summary()
	if s.Completed != 1 || s.Killed != 0 || s.Jobs != 1 {
		t.Errorf("summary counts: %+v", s)
	}
	if s.Makespan != 110 {
		t.Errorf("makespan %v", s.Makespan)
	}
	// Utilization: 400 node-seconds over 16*110.
	want := 400.0 / (16 * 110)
	if math.Abs(s.Utilization-want) > 1e-12 {
		t.Errorf("utilization %v, want %v", s.Utilization, want)
	}
}

func TestRecorderReconfiguration(t *testing.T) {
	rec := NewRecorder(32)
	j := makeJob(0, job.Malleable)
	r := rec.JobSubmitted(j, j.Label(), 0)
	rec.JobStarted(r, 0, 4)
	rec.JobReconfigured(r, 50, 12)
	rec.JobReconfigured(r, 80, 2)
	rec.JobFinished(r, 100, StatusCompleted)
	// 4*50 + 12*30 + 2*20 = 200 + 360 + 40 = 600.
	if r.NodeSeconds != 600 {
		t.Errorf("NodeSeconds = %v, want 600", r.NodeSeconds)
	}
	if r.InitialNodes != 4 || r.FinalNodes != 2 || r.PeakNodes != 12 {
		t.Errorf("allocation history %d/%d/%d", r.InitialNodes, r.FinalNodes, r.PeakNodes)
	}
	if r.Reconfigs != 2 {
		t.Errorf("Reconfigs = %d", r.Reconfigs)
	}
	if rec.Summary().Reconfigs != 2 {
		t.Errorf("summary reconfigs = %d", rec.Summary().Reconfigs)
	}
	// Busy timeline follows the allocation.
	busy := rec.BusyTimeline()
	if busy.At(25) != 4 || busy.At(60) != 12 || busy.At(90) != 2 || busy.At(100) != 0 {
		t.Errorf("busy timeline wrong: %v %v %v %v",
			busy.At(25), busy.At(60), busy.At(90), busy.At(100))
	}
}

func TestRecorderKilled(t *testing.T) {
	rec := NewRecorder(8)
	j := makeJob(0, job.Rigid)
	r := rec.JobSubmitted(j, j.Label(), 0)
	rec.JobStarted(r, 0, 2)
	rec.JobFinished(r, 50, StatusKilledWalltime)
	s := rec.Summary()
	if s.Killed != 1 || s.Completed != 0 {
		t.Errorf("killed accounting: %+v", s)
	}
}

func TestRecorderUnfinishedExcluded(t *testing.T) {
	rec := NewRecorder(8)
	ra := rec.JobSubmitted(makeJob(0, job.Rigid), "a", 0)
	rb := rec.JobSubmitted(makeJob(1, job.Rigid), "b", 0)
	rec.JobStarted(ra, 0, 2)
	rec.JobFinished(ra, 10, StatusCompleted)
	// b never starts.
	s := rec.Summary()
	if s.Jobs != 2 || s.Completed != 1 {
		t.Errorf("summary %+v", s)
	}
	if rb.Start >= 0 || rb.End >= 0 {
		t.Errorf("unstarted job has start %v, end %v", rb.Start, rb.End)
	}
}

func TestBoundedSlowdown(t *testing.T) {
	r := &JobRecord{Submit: 0, Start: 90, End: 100}
	// runtime 10, turnaround 100 -> slowdown 10.
	if got := r.BoundedSlowdown(); got != 10 {
		t.Errorf("slowdown = %v, want 10", got)
	}
	// Short job: runtime 1 bounded to 10 -> turnaround 91 / 10.
	r2 := &JobRecord{Submit: 0, Start: 90, End: 91}
	if got := r2.BoundedSlowdown(); math.Abs(got-9.1) > 1e-12 {
		t.Errorf("bounded slowdown = %v, want 9.1", got)
	}
	// No wait: slowdown clamps to 1.
	r3 := &JobRecord{Submit: 0, Start: 0, End: 1000}
	if got := r3.BoundedSlowdown(); got != 1 {
		t.Errorf("slowdown = %v, want 1", got)
	}
}

func TestSummaryStatistics(t *testing.T) {
	rec := NewRecorder(100)
	rs := make([]*JobRecord, 10)
	for i := range rs {
		rs[i] = rec.JobSubmitted(makeJob(i, job.Rigid), "s", 0)
	}
	for i, r := range rs {
		rec.JobStarted(r, float64(i*10), 1)
	}
	for i, r := range rs {
		rec.JobFinished(r, float64(i*10+100), StatusCompleted)
	}
	s := rec.Summary()
	if s.MeanWait != 45 { // waits 0,10,...,90
		t.Errorf("MeanWait = %v, want 45", s.MeanWait)
	}
	if s.P95Wait != 90 {
		t.Errorf("P95Wait = %v, want 90", s.P95Wait)
	}
	if s.MeanTurnaround != 145 {
		t.Errorf("MeanTurnaround = %v, want 145", s.MeanTurnaround)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	if got := percentile(xs, 0.5); got != 3 {
		t.Errorf("median = %v", got)
	}
	if got := percentile(xs, 1.0); got != 5 {
		t.Errorf("p100 = %v", got)
	}
	if got := percentile(xs, 0.0); got != 1 {
		t.Errorf("p0 = %v", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty percentile = %v", got)
	}
	// Original slice must not be reordered.
	if xs[0] != 5 {
		t.Error("percentile mutated input")
	}
}

func TestJobsCSV(t *testing.T) {
	rec := NewRecorder(8)
	j := makeJob(0, job.Rigid)
	j.Name = "alpha"
	r := rec.JobSubmitted(j, j.Label(), 0)
	rec.JobStarted(r, 5, 2)
	rec.JobFinished(r, 25, StatusCompleted)
	var buf bytes.Buffer
	if err := rec.WriteJobsCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "id,name,type,") {
		t.Errorf("missing header: %q", out)
	}
	if !strings.Contains(out, "0,alpha,rigid,0,5,25,5,20,25,") {
		t.Errorf("row missing: %q", out)
	}
}

func TestGanttExport(t *testing.T) {
	rec := NewRecorder(8)
	rec.AddGantt(0, "j", 4, 0, 10)
	rec.AddGantt(0, "j", 8, 10, 20)
	var buf bytes.Buffer
	if err := rec.WriteGanttJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"nodes": 8`) {
		t.Errorf("gantt JSON: %s", buf.String())
	}
	if len(rec.Gantt()) != 2 {
		t.Errorf("gantt entries %d", len(rec.Gantt()))
	}
}

func TestWriteSWFRoundTripsThroughParser(t *testing.T) {
	rec := NewRecorder(16)
	j := &job.Job{ID: 0, Type: job.Rigid, NumNodes: 4, WallTimeLimit: 500}
	j2 := &job.Job{ID: 1, Type: job.Rigid, NumNodes: 2, WallTimeLimit: 50}
	r := rec.JobSubmitted(j, j.Label(), 10)
	r2 := rec.JobSubmitted(j2, j2.Label(), 20)
	rec.JobStarted(r, 30, 4)
	rec.JobStarted(r2, 40, 2)
	rec.JobFinished(r2, 90, StatusKilledWalltime) // killed
	rec.JobFinished(r, 130, StatusCompleted)
	var buf bytes.Buffer
	if err := rec.WriteSWF(&buf, 2); err != nil {
		t.Fatal(err)
	}
	// The exported trace must parse back via the SWF reader; the killed
	// job (status 0) is dropped by the standard cleaning step.
	wl, err := job.ParseSWF(strings.NewReader(buf.String()), job.SWFOptions{NodeSpeed: 1e9, CoresPerNode: 2})
	if err != nil {
		t.Fatalf("exported SWF unparseable: %v\n%s", err, buf.String())
	}
	if len(wl.Jobs) != 1 {
		t.Fatalf("kept %d jobs, want 1 (killed job filtered)", len(wl.Jobs))
	}
	back := wl.Jobs[0]
	if back.NumNodes != 4 {
		t.Errorf("nodes %d, want 4", back.NumNodes)
	}
	if back.SubmitTime != 10 || back.WallTimeLimit != 500 {
		t.Errorf("submit %v walltime %v", back.SubmitTime, back.WallTimeLimit)
	}
}
