package viz

import (
	"bytes"
	"encoding/xml"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/job"
	"repro/internal/metrics"
)

var update = flag.Bool("update", false, "rewrite golden files")

// parseSVG checks well-formedness and counts elements by local name.
func parseSVG(t *testing.T, data []byte) map[string]int {
	t.Helper()
	dec := xml.NewDecoder(bytes.NewReader(data))
	counts := map[string]int{}
	for {
		tok, err := dec.Token()
		if err != nil {
			if err.Error() == "EOF" {
				break
			}
			t.Fatalf("invalid SVG: %v", err)
		}
		if se, ok := tok.(xml.StartElement); ok {
			counts[se.Name.Local]++
		}
	}
	return counts
}

func sampleGantt() []metrics.GanttEntry {
	return []metrics.GanttEntry{
		{Job: 0, Name: "a", Nodes: 4, Start: 0, End: 10},
		{Job: 1, Name: "b", Nodes: 2, Start: 2, End: 8},
		{Job: 0, Name: "a", Nodes: 8, Start: 10, End: 20}, // expanded
		{Job: 2, Name: "c", Nodes: 3, Start: 12, End: 25},
	}
}

func TestGanttWellFormed(t *testing.T) {
	var buf bytes.Buffer
	if err := Gantt(&buf, sampleGantt(), nil, 16, "demo"); err != nil {
		t.Fatal(err)
	}
	counts := parseSVG(t, buf.Bytes())
	if counts["svg"] != 1 {
		t.Errorf("svg elements: %d", counts["svg"])
	}
	// Background + at least one rect per segment.
	if counts["rect"] < 5 {
		t.Errorf("rects: %d, want >= 5", counts["rect"])
	}
	if counts["text"] == 0 || counts["line"] == 0 {
		t.Error("axes missing")
	}
	// Tooltips carry job names.
	if !strings.Contains(buf.String(), "<title>a: ") {
		t.Error("segment tooltip missing")
	}
}

func TestGanttOutagesAndReconfigMarkers(t *testing.T) {
	entries := sampleGantt()
	outages := []metrics.Outage{
		{Node: 6, Start: 5, End: 15},
		{Node: 12, Start: 18, End: -1}, // still down at the end
		{Node: 99, Start: 1, End: 2},   // out of range: dropped
	}
	var buf bytes.Buffer
	err := Gantt(&buf, entries, outages, 16, "failures")
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	parseSVG(t, buf.Bytes())
	if !strings.Contains(out, "node 6 down, 5.0–15.0 s") {
		t.Error("closed outage band missing")
	}
	// The open outage is clamped to the plotted range (maxT = 25).
	if !strings.Contains(out, "node 12 down, 18.0–25.0 s") {
		t.Error("open outage band not clamped to plot edge")
	}
	if strings.Contains(out, "node 99") {
		t.Error("out-of-range outage drawn")
	}
	// Job 0's second segment (the expansion at t=10) gets a marker line.
	if !strings.Contains(out, `stroke="#b02222"`) {
		t.Error("reconfiguration marker missing")
	}

	golden := filepath.Join("testdata", "gantt_golden.svg")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Error("Gantt output differs from golden; rerun with -update if intended")
	}
}

func TestGanttEmptyEntries(t *testing.T) {
	var buf bytes.Buffer
	if err := Gantt(&buf, nil, nil, 8, ""); err != nil {
		t.Fatal(err)
	}
	parseSVG(t, buf.Bytes())
}

func TestGanttRejectsBadMachine(t *testing.T) {
	var buf bytes.Buffer
	if err := Gantt(&buf, sampleGantt(), nil, 0, ""); err == nil {
		t.Error("zero-node machine accepted")
	}
}

func TestTimelineWellFormed(t *testing.T) {
	var tl metrics.Timeline
	tl.Add(0, 4)
	tl.Add(10, 4)
	tl.Add(20, -6)
	var buf bytes.Buffer
	if err := Timeline(&buf, &tl, "busy nodes", 16, "utilization"); err != nil {
		t.Fatal(err)
	}
	counts := parseSVG(t, buf.Bytes())
	if counts["polyline"] != 1 {
		t.Errorf("polylines: %d", counts["polyline"])
	}
	if !strings.Contains(buf.String(), "busy nodes") {
		t.Error("y label missing")
	}
}

func TestTimelineEmpty(t *testing.T) {
	var tl metrics.Timeline
	var buf bytes.Buffer
	if err := Timeline(&buf, &tl, "y", 0, ""); err != nil {
		t.Fatal(err)
	}
	parseSVG(t, buf.Bytes())
}

func TestJobColorsStableAndDistinct(t *testing.T) {
	if jobColor(3) != jobColor(3) {
		t.Error("colors not stable")
	}
	seen := map[string]bool{}
	for i := 0; i < 20; i++ {
		seen[jobColor(i)] = true
	}
	if len(seen) < 18 {
		t.Errorf("only %d distinct colors in 20", len(seen))
	}
}

func TestHSLConversion(t *testing.T) {
	// Pure red, green, blue at full saturation / half lightness.
	if got := hslToHex(0, 1, 0.5); got != "#ff0000" {
		t.Errorf("red = %s", got)
	}
	if got := hslToHex(120, 1, 0.5); got != "#00ff00" {
		t.Errorf("green = %s", got)
	}
	if got := hslToHex(240, 1, 0.5); got != "#0000ff" {
		t.Errorf("blue = %s", got)
	}
	if got := hslToHex(0, 0, 1); got != "#ffffff" {
		t.Errorf("white = %s", got)
	}
}

func TestNiceTicks(t *testing.T) {
	ticks := niceTicks(100, 5)
	if ticks[0] != 0 {
		t.Errorf("first tick %v", ticks[0])
	}
	if ticks[len(ticks)-1] < 100-1e-9 {
		t.Errorf("last tick %v does not reach max", ticks[len(ticks)-1])
	}
	for i := 1; i < len(ticks); i++ {
		if ticks[i] <= ticks[i-1] {
			t.Errorf("ticks not increasing: %v", ticks)
		}
	}
	if got := niceTicks(0, 5); len(got) != 1 || got[0] != 0 {
		t.Errorf("degenerate ticks: %v", got)
	}
}

func TestContiguous(t *testing.T) {
	runs := contiguous([]int{0, 1, 2, 5, 6, 9})
	if len(runs) != 3 {
		t.Fatalf("runs: %v", runs)
	}
	if len(runs[0]) != 3 || len(runs[1]) != 2 || len(runs[2]) != 1 {
		t.Errorf("run lengths wrong: %v", runs)
	}
	if contiguous(nil) != nil {
		t.Error("empty input should give nil")
	}
}

func TestEscape(t *testing.T) {
	if got := escape(`a<b>&"c"`); got != "a&lt;b&gt;&amp;&quot;c&quot;" {
		t.Errorf("escape = %q", got)
	}
}

// TestWriteGanttMatchesGantt pins that the recorder-level WriteGantt entry
// point (used by the daemon's gantt.svg endpoint) and the low-level Gantt
// call (used historically by the CLI) produce identical output for the
// same run, including the recorder's outage overlay.
func TestWriteGanttMatchesGantt(t *testing.T) {
	rec := metrics.NewRecorder(16)
	a := rec.JobSubmitted(&job.Job{ID: 0, Type: job.Malleable}, "a", 0)
	b := rec.JobSubmitted(&job.Job{ID: 1, Type: job.Rigid}, "b", 0)
	rec.JobStarted(a, 0, 4)
	rec.JobStarted(b, 2, 2)
	rec.JobFinished(b, 8, metrics.StatusCompleted)
	rec.JobReconfigured(a, 10, 8)
	rec.JobFinished(a, 20, metrics.StatusCompleted)
	rec.NodeDown(3, 5)
	rec.NodeUp(3, 9)

	var direct, viaRec bytes.Buffer
	if err := Gantt(&direct, rec.Gantt(), rec.Outages(), rec.TotalNodes(), "t"); err != nil {
		t.Fatal(err)
	}
	if err := WriteGantt(&viaRec, rec, "t"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(direct.Bytes(), viaRec.Bytes()) {
		t.Error("WriteGantt diverged from Gantt on the same recorder")
	}

	var util bytes.Buffer
	if err := WriteUtilization(&util, rec, ""); err != nil {
		t.Fatal(err)
	}
	if c := parseSVG(t, util.Bytes()); c["svg"] != 1 {
		t.Errorf("utilization svg elements: %d", c["svg"])
	}
}
