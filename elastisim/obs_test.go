package elastisim

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/obs"
)

// scrape renders the registry's exposition text for assertions.
func scrape(t *testing.T, reg *MetricsRegistry) string {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return buf.String()
}

// TestObsDoesNotChangeOutputs pins the registry's zero-interference
// contract, in the same spirit as the nil-Tracer telemetry pin: running
// the shared mixed-workload-with-failures scenario with a metrics
// registry and flight recorder attached must produce byte-identical
// outputs — exact-float trace, jobs CSV, summary — to the bare run. The
// obs layer only ever reads counters the run already maintains.
func TestObsDoesNotChangeOutputs(t *testing.T) {
	_, bareTrace, bareCSV := equivalenceRunOpts(t, Options{Trace: true})

	cfg := equivalenceConfig(t, Options{Trace: true})
	cfg.Metrics = NewMetricsRegistry()
	cfg.Flight = NewFlightRecorder(128)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	obsTrace, obsCSV := dumpRun(t, res)

	if bareTrace != obsTrace {
		t.Errorf("trace diverges with obs attached:\n%s", firstDiff(bareTrace, obsTrace))
	}
	if !bytes.Equal(bareCSV, obsCSV) {
		t.Errorf("jobs CSV diverges with obs attached")
	}

	// The registry must reflect the run it observed.
	text := scrape(t, cfg.Metrics)
	for _, want := range []string{
		"elastisim_sessions_started_total 1",
		`elastisim_sessions_finished_total{reason="drained"} 1`,
		fmt.Sprintf("elastisim_sim_events_total %d", res.Events),
		fmt.Sprintf("elastisim_sim_invocations_total %d", res.Invocations),
		fmt.Sprintf("elastisim_sim_decisions_total %d", res.Decisions),
		fmt.Sprintf("elastisim_sim_jobs_total %d", len(res.Records)),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
	if _, err := obs.ValidateExposition(strings.NewReader(text)); err != nil {
		t.Errorf("session exposition invalid: %v", err)
	}
	if cfg.Flight.Total() < 2 {
		t.Errorf("flight recorded %d entries, want create + finish", cfg.Flight.Total())
	}
}

// TestObsSessionPanic pins the crash path: an engine panic increments the
// panics counter, lands in the flight ring with the panic message, and the
// recorder dumps a readable postmortem quoting it.
func TestObsSessionPanic(t *testing.T) {
	cfg := equivalenceConfig(t, Options{})
	cfg.Algorithm = panicAlgo{}
	cfg.Metrics = NewMetricsRegistry()
	cfg.Flight = NewFlightRecorder(64)
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Run(context.Background())
	var ie *InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("Run error = %v (%T), want *InternalError", err, err)
	}

	if got := scrape(t, cfg.Metrics); !strings.Contains(got, "elastisim_session_panics_total 1") {
		t.Errorf("panics counter not incremented:\n%s", got)
	}
	var panicEntry *obs.FlightEntry
	for _, e := range cfg.Flight.Snapshot() {
		if e.Cat == "panic" {
			panicEntry = &e
			break
		}
	}
	if panicEntry == nil {
		t.Fatal("no panic entry in flight ring")
	}
	if !strings.Contains(panicEntry.Msg, "scheduler invariant violated (test)") {
		t.Errorf("panic flight entry does not quote the panic: %q", panicEntry.Msg)
	}

	var buf bytes.Buffer
	if err := cfg.Flight.WritePostmortem(&buf, "panic", ie.Error(), cfg.Metrics); err != nil {
		t.Fatalf("WritePostmortem: %v", err)
	}
	var pm obs.Postmortem
	if err := json.Unmarshal(buf.Bytes(), &pm); err != nil {
		t.Fatalf("postmortem is not valid JSON: %v", err)
	}
	if pm.Reason != "panic" || !strings.Contains(pm.Detail, "scheduler invariant violated") {
		t.Errorf("postmortem header = %q/%q", pm.Reason, pm.Detail)
	}
	if len(pm.Entries) == 0 {
		t.Error("postmortem carries no flight entries")
	}
	if !strings.Contains(pm.Metrics, "elastisim_session_panics_total 1") {
		t.Error("postmortem metrics snapshot missing the panic counter")
	}
}

// TestObsAbortAndResume pins the resumable-session accounting: each
// cancelled run slice counts one abort, and the eventual completion still
// counts exactly one finished session.
func TestObsAbortAndResume(t *testing.T) {
	cfg := equivalenceConfig(t, Options{})
	cfg.Metrics = NewMetricsRegistry()
	cfg.Flight = NewFlightRecorder(64)
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := s.Run(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled Run %d error = %v", i, err)
		}
	}
	if _, err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	// A second Result() must not double-count the finish.
	if _, err := s.Result(); err != nil {
		t.Fatal(err)
	}
	text := scrape(t, cfg.Metrics)
	for _, want := range []string{
		`elastisim_session_aborts_total{reason="cancelled"} 2`,
		`elastisim_sessions_finished_total{reason="drained"} 1`,
		"elastisim_sessions_started_total 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}
