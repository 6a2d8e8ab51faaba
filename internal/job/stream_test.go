package job

import (
	"bytes"
	"strings"
	"testing"
)

func streamTestConfig() Config {
	return Config{
		Name:  "stream-test",
		Seed:  42,
		Count: 300,
		Arrival: Arrival{
			Kind: ArrivalPoisson,
			Rate: 0.1,
		},
		Nodes:        [2]int{2, 32},
		MachineNodes: 64,
		NodeSpeed:    100e9,
		TypeShares: map[Type]float64{
			Rigid: 0.4, Moldable: 0.2, Malleable: 0.3, Evolving: 0.1,
		},
		Users:              3,
		CheckpointInterval: "600",
	}
}

// TestStreamMatchesGenerate pins that draining the stream reproduces
// Generate exactly — same jobs, same order, same serialized bytes.
func TestStreamMatchesGenerate(t *testing.T) {
	cfg := streamTestConfig()
	want, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}

	s, err := NewStream(cfg)
	if err != nil {
		t.Fatalf("NewStream: %v", err)
	}
	got := &Workload{Name: cfg.Name}
	for {
		j, err := s.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if j == nil {
			break
		}
		got.Jobs = append(got.Jobs, j)
	}
	if len(got.Jobs) != len(want.Jobs) {
		t.Fatalf("streamed %d jobs, Generate produced %d", len(got.Jobs), len(want.Jobs))
	}
	// Exhausted streams keep returning nil.
	if j, err := s.Next(); j != nil || err != nil {
		t.Errorf("Next after exhaustion = (%v, %v), want (nil, nil)", j, err)
	}

	prev := -1.0
	for i, j := range got.Jobs {
		if j.ID != ID(i) {
			t.Fatalf("job %d has ID %d, want dense stream order", i, j.ID)
		}
		if j.SubmitTime < prev {
			t.Fatalf("job %d submit %g before predecessor %g", i, j.SubmitTime, prev)
		}
		prev = j.SubmitTime
	}

	wantJSON, err := want.MarshalJSON()
	if err != nil {
		t.Fatalf("marshal Generate workload: %v", err)
	}
	gotJSON, err := got.MarshalJSON()
	if err != nil {
		t.Fatalf("marshal streamed workload: %v", err)
	}
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Errorf("streamed workload differs from Generate output (lens %d vs %d)", len(gotJSON), len(wantJSON))
	}
}

// TestStreamSharesTemplates checks the constant-memory claim's core
// mechanism: jobs with the same profile shape share one Application.
func TestStreamSharesTemplates(t *testing.T) {
	cfg := streamTestConfig()
	cfg.Count = 1000
	s, err := NewStream(cfg)
	if err != nil {
		t.Fatalf("NewStream: %v", err)
	}
	apps := map[*Application]bool{}
	n := 0
	for {
		j, err := s.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if j == nil {
			break
		}
		apps[j.App] = true
		n++
	}
	// Distinct templates are bounded by profiles x iteration range x
	// flexibility, far below the job count.
	if len(apps) >= n/2 {
		t.Errorf("%d jobs use %d distinct applications; templates are not shared", n, len(apps))
	}
}

func TestStreamRejectsBadConfig(t *testing.T) {
	bad := []Config{
		{Count: 0, Nodes: [2]int{1, 4}, NodeSpeed: 1e9},
		{Count: 10, Nodes: [2]int{0, 4}, NodeSpeed: 1e9},
		{Count: 10, Nodes: [2]int{8, 4}, NodeSpeed: 1e9},
		{Count: 10, Nodes: [2]int{1, 4}, NodeSpeed: 0},
		{Count: 10, Nodes: [2]int{1, 4}, NodeSpeed: 1e9, CheckpointInterval: "(("},
	}
	for i, cfg := range bad {
		if _, err := NewStream(cfg); err == nil {
			t.Errorf("config %d: NewStream accepted invalid config", i)
		}
	}
}

// TestStreamRejectsUnknownArrival: an arrival kind the generator does not
// know is a configuration error naming the valid kinds, not a panic at the
// first job.
func TestStreamRejectsUnknownArrival(t *testing.T) {
	cfg := streamTestConfig()
	cfg.Arrival.Kind = "bogus"
	_, err := NewStream(cfg)
	if err == nil {
		t.Fatal("NewStream accepted arrival kind \"bogus\"")
	}
	for _, want := range []string{`"bogus"`, "poisson", "weibull", "uniform", "all"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
}

// TestWorkloadWriterMatchesMarshal pins the streaming serializer to the
// buffered one, byte for byte.
func TestWorkloadWriterMatchesMarshal(t *testing.T) {
	cfg := streamTestConfig()
	cfg.Count = 50
	w, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	want, err := w.MarshalJSON()
	if err != nil {
		t.Fatalf("MarshalJSON: %v", err)
	}

	var buf bytes.Buffer
	ww := NewWorkloadWriter(&buf, w.Name)
	for _, j := range w.Jobs {
		if err := ww.WriteJob(j); err != nil {
			t.Fatalf("WriteJob: %v", err)
		}
	}
	if err := ww.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if !bytes.Equal(want, buf.Bytes()) {
		t.Errorf("streamed JSON differs from MarshalJSON\nwant %d bytes:\n%.300s\ngot %d bytes:\n%.300s",
			len(want), want, buf.Len(), buf.Bytes())
	}

	// The round trip must parse back to a valid workload.
	if _, err := ParseWorkload(buf.Bytes(), cfg.MachineNodes); err != nil {
		t.Errorf("streamed output does not parse: %v", err)
	}
}

func TestWorkloadWriterNoName(t *testing.T) {
	j := &Job{
		Type: Rigid, NumNodes: 1,
		App: &Application{Phases: []Phase{{Tasks: []Task{
			{Kind: TaskCompute, Model: MustExprModel("1")},
		}}}},
	}
	w := &Workload{Jobs: []*Job{j}}
	want, err := w.MarshalJSON()
	if err != nil {
		t.Fatalf("MarshalJSON: %v", err)
	}
	var buf bytes.Buffer
	ww := NewWorkloadWriter(&buf, "")
	if err := ww.WriteJob(j); err != nil {
		t.Fatalf("WriteJob: %v", err)
	}
	if err := ww.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if !bytes.Equal(want, buf.Bytes()) {
		t.Errorf("nameless stream differs:\nwant:\n%s\ngot:\n%s", want, buf.Bytes())
	}
}

func TestWorkloadWriterRejectsDependencies(t *testing.T) {
	j := &Job{
		Type: Rigid, NumNodes: 1, Dependencies: []ID{0},
		App: &Application{Phases: []Phase{{Tasks: []Task{
			{Kind: TaskCompute, Model: MustExprModel("1")},
		}}}},
	}
	ww := NewWorkloadWriter(&bytes.Buffer{}, "x")
	if err := ww.WriteJob(j); err == nil {
		t.Error("WriteJob accepted a job with dependencies")
	}
}
