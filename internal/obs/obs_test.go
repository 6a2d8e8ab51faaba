package obs

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestRegistryRendersValidExposition(t *testing.T) {
	reg := NewRegistry()
	reg.Help("jobs_submitted_total", "jobs ever submitted")
	reg.Counter("jobs_submitted_total").Add(3)
	reg.Gauge(`jobs{state="pending"}`, nil).Set(2)
	reg.Gauge(`jobs{state="running"}`, nil).Set(1.5)
	reg.Gauge("queue_depth", func() float64 { return 42 })
	h := reg.Histogram("fsync_seconds", DefLatencyBuckets)
	h.Observe(0.002)
	h.Observe(0.0002)
	h.Observe(5)

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	stats, err := ValidateExposition(strings.NewReader(text))
	if err != nil {
		t.Fatalf("registry output fails its own validator: %v\n%s", err, text)
	}
	for fam, typ := range map[string]string{
		"jobs_submitted_total": "counter",
		"jobs":                 "gauge",
		"queue_depth":          "gauge",
		"fsync_seconds":        "histogram",
	} {
		if got := stats.Families[fam]; got != typ {
			t.Errorf("family %s: type %q, want %q\n%s", fam, got, typ, text)
		}
	}
	// 1 counter + 3 gauges + (len(buckets)+1 + sum + count) histogram lines.
	want := 4 + len(DefLatencyBuckets) + 1 + 2
	if stats.Series != want {
		t.Errorf("series = %d, want %d\n%s", stats.Series, want, text)
	}
	for _, frag := range []string{
		"# HELP jobs_submitted_total jobs ever submitted",
		"jobs_submitted_total 3",
		`jobs{state="pending"} 2`,
		"queue_depth 42",
		`fsync_seconds_bucket{le="+Inf"} 3`,
		"fsync_seconds_count 3",
	} {
		if !strings.Contains(text, frag) {
			t.Errorf("exposition missing %q:\n%s", frag, text)
		}
	}
}

func TestRegistryGetOrCreateAndNilSafety(t *testing.T) {
	reg := NewRegistry()
	c1 := reg.Counter("x_total")
	c1.Inc()
	if c2 := reg.Counter("x_total"); c2 != c1 {
		t.Error("Counter is not get-or-create")
	}
	if reg.Counter("x_total").Value() != 1 {
		t.Error("counter value lost across get-or-create")
	}

	// The nil registry hands out nil instruments and every call no-ops.
	var nilReg *Registry
	nilReg.Counter("a_total").Inc()
	nilReg.Gauge("b", nil).Set(1)
	nilReg.Gauge("b", nil).SetMax(1)
	nilReg.Histogram("c", DefLatencyBuckets).Observe(1)
	nilReg.Help("a_total", "h")
	if err := nilReg.WritePrometheus(&strings.Builder{}); err != nil {
		t.Error(err)
	}
	var nilFlight *FlightRecorder
	nilFlight.Record("cat", "msg")
	nilFlight.Recordf("cat", "%d", 1)
	if nilFlight.Snapshot() != nil || nilFlight.Total() != 0 {
		t.Error("nil flight recorder is not empty")
	}
}

func TestRegistryPanicsOnBadNames(t *testing.T) {
	reg := NewRegistry()
	for _, bad := range []string{
		"", "1leading", "has space", `x{le="0.1"}`, `x{bad-label="v"}`,
		`x{unterminated="v}`, `x{k=unquoted}`, `x{k="v"`,
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Counter(%q) did not panic", bad)
				}
			}()
			reg.Counter(bad)
		}()
	}
	// Type mismatch on an existing name must panic too.
	reg.Counter("taken_total")
	func() {
		defer func() {
			if recover() == nil {
				t.Error("gauge over existing counter name did not panic")
			}
		}()
		reg.Gauge("taken_total", nil)
	}()
}

func TestGaugeSetMax(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("peak", nil)
	g.SetMax(5)
	g.SetMax(3)
	if g.Value() != 5 {
		t.Errorf("SetMax: got %v, want 5", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 106 {
		t.Fatalf("sum = %v, want 106", h.Sum())
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{
		`lat_bucket{le="1"} 2`, // 0.5 and the boundary value 1 (le is inclusive)
		`lat_bucket{le="2"} 3`,
		`lat_bucket{le="4"} 4`,
		`lat_bucket{le="+Inf"} 5`,
	} {
		if !strings.Contains(sb.String(), frag) {
			t.Errorf("missing %q in:\n%s", frag, sb.String())
		}
	}
}

func TestRegistryConcurrentUse(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				reg.Counter("c_total").Inc()
				reg.Gauge("g", nil).SetMax(float64(i))
				reg.Histogram("h_seconds", DefLatencyBuckets).Observe(0.001)
			}
		}()
	}
	// Concurrent scrapes must not race with mutation.
	for i := 0; i < 10; i++ {
		var sb strings.Builder
		if err := reg.WritePrometheus(&sb); err != nil {
			t.Error(err)
		}
	}
	wg.Wait()
	if got := reg.Counter("c_total").Value(); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
	if got := reg.Histogram("h_seconds", nil).Count(); got != 8000 {
		t.Errorf("histogram count = %d, want 8000", got)
	}
}

func TestFlightRecorderRing(t *testing.T) {
	f := NewFlightRecorder(4)
	for i := 0; i < 10; i++ {
		f.Recordf("test", "entry %d", i)
	}
	snap := f.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot len = %d, want 4", len(snap))
	}
	for i, e := range snap {
		want := i + 6 // entries 6..9 survive
		if e.Msg != "" && e.Msg != strings.TrimSpace(e.Msg) {
			t.Errorf("entry %d has padded message %q", i, e.Msg)
		}
		if e.Msg != "entry "+string(rune('0'+want)) {
			t.Errorf("entry %d = %q, want %q", i, e.Msg, "entry "+string(rune('0'+want)))
		}
		if e.Seq != uint64(want) {
			t.Errorf("entry %d seq = %d, want %d", i, e.Seq, want)
		}
	}
	if f.Total() != 10 {
		t.Errorf("total = %d, want 10", f.Total())
	}
}

func TestPostmortemDump(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("events_total").Add(7)
	f := NewFlightRecorder(16)
	f.Record("kernel", "t=100 events=4096")
	f.Record("jobqueue", "job j000001 → running (worker-0)")

	dir := t.TempDir()
	path, err := f.DumpFile(dir, "sigquit", "operator-requested dump", reg)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{
		`"reason": "sigquit"`,
		`"detail": "operator-requested dump"`,
		"job j000001",
		"events_total 7",
	} {
		if !strings.Contains(string(data), frag) {
			t.Errorf("postmortem missing %q:\n%s", frag, data)
		}
	}
	if base := filepath.Base(path); !strings.HasPrefix(base, "postmortem-sigquit-") {
		t.Errorf("unexpected artifact name %s", base)
	}
}

func TestFlightRecorderConcurrent(t *testing.T) {
	f := NewFlightRecorder(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				f.Recordf("w", "worker %d entry %d", w, i)
				if i%100 == 0 {
					_ = f.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	if f.Total() != 4000 {
		t.Errorf("total = %d, want 4000", f.Total())
	}
	if len(f.Snapshot()) != 64 {
		t.Errorf("snapshot len = %d, want 64", len(f.Snapshot()))
	}
}

func TestValidateExpositionRejectsMalformed(t *testing.T) {
	for _, tc := range []struct{ name, text string }{
		{"bad name", "1bad 3\n"},
		{"no value", "lonely\n"},
		{"bad value", "x notanumber\n"},
		{"duplicate series", "x 1\nx 2\n"},
		{"type after samples", "x 1\n# TYPE x counter\n"},
		{"unknown type", "# TYPE x countre\nx 1\n"},
		{"orphan bucket", `x_bucket{le="1"} 1` + "\n"},
		{"bucket sans le", "# TYPE x histogram\nx_bucket 1\n"},
		{"unquoted label", `x{k=v} 1` + "\n"},
	} {
		if _, err := ValidateExposition(strings.NewReader(tc.text)); err == nil {
			t.Errorf("%s: accepted:\n%s", tc.name, tc.text)
		}
	}
	// A well-formed document with comments, timestamps, and escapes passes.
	good := `# plain comment
# HELP up whether the daemon is up
# TYPE up gauge
up 1
# TYPE req_total counter
req_total{route="GET /v1/sessions",code="200"} 12 1722470400000
`
	stats, err := ValidateExposition(strings.NewReader(good))
	if err != nil {
		t.Fatalf("rejected valid exposition: %v", err)
	}
	if stats.Series != 2 || !stats.HasFamily("up") || !stats.HasFamily("req_total") {
		t.Errorf("stats = %+v", stats)
	}
}
