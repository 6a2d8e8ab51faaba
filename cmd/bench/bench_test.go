package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifestMatches pins BENCHMARK.json to the tables the harness
// reports from: every workload and metric in one is in the other.
func TestManifestMatches(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("manifest has %d workloads, harness %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: manifest %+v, harness %+v", i, m.Workloads[i], w)
		}
		if !nameRE.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: bad name or why", w.name)
		}
	}
	seen := map[string]bool{}
	compare := func(kind string, got []manifestMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: manifest has %d metrics, harness %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s %d: manifest %+v, harness %+v", kind, i, g, d)
			}
			if bounded && (g.Bound == nil || *g.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25) {
				t.Errorf("%s %s: bound %v vs %v", kind, d.Name, g.Bound, d.Bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s %s: per-layer metrics carry no bound", kind, d.Name)
			}
			if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
				t.Errorf("%s %s: bad name, unit %q or direction %q", kind, d.Name, d.Unit, d.Better)
			}
			if seen[d.Name] {
				t.Errorf("metric %s listed twice", d.Name)
			}
			seen[d.Name] = true
		}
	}
	compare("end_to_end", m.EndToEnd, endToEnd, true)
	compare("per_layer", m.PerLayer, perLayer, false)
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
	if len(m.Paths) != 1 || m.Paths[0] != "cmd/bench" || m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", m.Paths, m.RunSeconds)
	}
}

func shortEnv(t *testing.T, seed uint64) *env {
	return &env{seed: seed, reps: 1, workers: 2, tmp: t.TempDir(), short: true}
}

// layersOf lists the layer prefixes of the per-layer table.
func layersOf() map[string]bool {
	out := map[string]bool{}
	for _, d := range perLayer {
		out[d.Name[:strings.Index(d.Name, ".")]] = true
	}
	return out
}

// TestSuiteShort runs all six workloads at test size: everything named is
// emitted, outputs check out, and a seed fixes digests and counts.
func TestSuiteShort(t *testing.T) {
	a, err := runSuite(shortEnv(t, 1), "", io.Discard, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runSuite(shortEnv(t, 1), "", io.Discard, nil)
	if err != nil {
		t.Fatal(err)
	}
	c, err := runSuite(shortEnv(t, 2), "", io.Discard, nil)
	if err != nil {
		t.Fatal(err)
	}
	exercised := map[string]bool{}
	for _, wl := range workloads {
		ra, rb, rc := a.Workloads[wl.name], b.Workloads[wl.name], c.Workloads[wl.name]
		if ra == nil {
			t.Fatalf("%s: not run", wl.name)
		}
		if ra.Failed != 0 || ra.Attempted == 0 {
			t.Errorf("%s: %d of %d ops failed", wl.name, ra.Failed, ra.Attempted)
		}
		if len(ra.EndToEnd) != len(endToEnd) || len(ra.PerLayer) != len(perLayer) {
			t.Errorf("%s: %d end-to-end and %d per-layer metrics emitted, want %d and %d",
				wl.name, len(ra.EndToEnd), len(ra.PerLayer), len(endToEnd), len(perLayer))
		}
		for _, d := range endToEnd {
			if s, ok := ra.EndToEnd[d.Name]; !ok || s.Value <= 0 || s.N < 1 || s.Unit != d.Unit {
				t.Errorf("%s: %s = %+v, want a positive value with unit %s", wl.name, d.Name, s, d.Unit)
			}
		}
		for _, d := range perLayer {
			s, ok := ra.PerLayer[d.Name]
			if !ok || s.Unit != d.Unit || s.Value < 0 {
				t.Errorf("%s: %s = %+v", wl.name, d.Name, s)
			}
			if s.Value > 0 {
				exercised[d.Name[:strings.Index(d.Name, ".")]] = true
			}
			if d.Exact && s.Value != rb.PerLayer[d.Name].Value {
				t.Errorf("%s: count %s is %v then %v for one seed", wl.name, d.Name, s.Value, rb.PerLayer[d.Name].Value)
			}
		}
		if ra.Digest == "" || ra.Digest != rb.Digest {
			t.Errorf("%s: digest %q then %q for one seed", wl.name, ra.Digest, rb.Digest)
		}
		if ra.Digest == rc.Digest {
			t.Errorf("%s: seeds 1 and 2 gave the same output", wl.name)
		}
	}
	for layer := range layersOf() {
		if !exercised[layer] {
			t.Errorf("no workload reports a non-zero %s.* metric", layer)
		}
	}
	if a.Workloads["failures_shrink"].PerLayer["failure.node_failures"].Value == 0 {
		t.Error("failures_shrink saw no node failure")
	}

	if !selfAgreement(a, a, io.Discard) {
		t.Error("a suite disagrees with itself")
	}
	if selfAgreement(a, c, io.Discard) {
		t.Error("suites of different seeds agree on digests and counts")
	}
}

// TestTracingLeavesDigest: the scheduler probe and the counting sink must
// not change what a simulation computes.
func TestTracingLeavesDigest(t *testing.T) {
	for name, sp := range simSpecs {
		sp.nodes, sp.jobs = max(sp.nodes/16, 64), max(sp.jobs/40, 60)
		var digests [2]string
		for i, log := range []*spanLog{nil, newSpanLog()} {
			o, err := sp.prepare(3, log, 1)
			if err == nil {
				err = o.run(log, 1)
			}
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			digests[i] = o.digest
			if log != nil && (o.sink.events == 0 || len(log.durationsOf("sched.schedule")) == 0) {
				t.Errorf("%s: traced op saw %d telemetry events and %d scheduler calls", name, o.sink.events, len(log.durationsOf("sched.schedule")))
			}
		}
		if digests[0] != digests[1] {
			t.Errorf("%s: tracing changed the digest", name)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	l := newSpanLog()
	at := func(ms int) time.Time { return l.epoch.Add(time.Duration(ms) * time.Millisecond) }
	root := l.add("root", -1, 1, at(0), at(100))
	// Sequential children: self time plus children adds up to the parent.
	seq := l.add("seq", root, 1, at(0), at(40))
	l.add("a", seq, 1, at(5), at(15))
	l.add("b", seq, 1, at(15), at(30))
	// Concurrent children: the covered part is the union, not the sum.
	par := l.add("par", root, 1, at(50), at(100))
	l.add("c", par, 1, at(50), at(80))
	l.add("d", par, 1, at(60), at(90))
	l.add("early", par, 1, at(40), at(55)) // starts before its parent: clipped

	self := l.selfTimes()
	ms := func(i int) int { return int(self[i] / time.Millisecond) }
	if ms(seq) != 15 || ms(seq)+10+15 != 40 {
		t.Errorf("sequential parent: self %d ms, want 15", ms(seq))
	}
	if ms(par) != 10 {
		t.Errorf("concurrent parent: self %d ms, want 10", ms(par))
	}
	if ms(root) != 10 {
		t.Errorf("root: self %d ms, want 10", ms(root))
	}
	for i, d := range self {
		if d < 0 {
			t.Errorf("span %d: negative self time %v", i, d)
		}
	}
	if got := l.chromeEvents(1, "test"); len(got) != len(l.spans)+1 {
		t.Errorf("%d chrome events for %d spans", len(got), len(l.spans))
	}
}

// TestResultLine drives the BENCHMARK.json command form end to end.
func TestResultLine(t *testing.T) {
	if raceEnabled {
		t.Skip("the harness refuses to measure a -race build")
	}
	for trace, defs := range [][]metricDef{endToEnd, perLayer} {
		var stdout, stderr bytes.Buffer
		args := []string{"--workload", "deep_queue", "--seed", "5", "--seconds", "1", "--trace", []string{"0", "1"}[trace], "-short"}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("exit %d: %s", code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var got map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
			t.Fatal(err)
		}
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		if len(keys) != 4 || got["correct"] == nil || got["attempted"] == nil || got["failed"] == nil || got["metrics"] == nil {
			t.Fatalf("result keys %v", keys)
		}
		var metrics map[string]map[string]any
		if err := json.Unmarshal(got["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		want := map[string]map[string]any{}
		for _, d := range defs {
			want[d.Name] = map[string]any{"unit": d.Unit}
		}
		for name, m := range metrics {
			if _, ok := m["value"].(float64); !ok || len(m) != 2 {
				t.Errorf("metric %s: %v", name, m)
			}
			delete(m, "value")
		}
		if !reflect.DeepEqual(metrics, want) {
			t.Errorf("trace %d: metrics %v, want %v", trace, metrics, want)
		}
	}
	if left, _ := os.ReadDir("."); len(left) > 0 {
		for _, f := range left {
			if strings.HasPrefix(f.Name(), ".bench_tmp") {
				t.Errorf("temporary directory %s left behind", f.Name())
			}
		}
	}
}
