package experiments

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/elastisim"
)

// Experiment tests use small job counts to stay fast; the benches and
// cmd/expreport run the full-size versions.
const testJobs = 40

func parseCell(t *testing.T, cell string) float64 {
	t.Helper()
	cell = strings.TrimSuffix(cell, "%")
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		t.Fatalf("cell %q: %v", cell, err)
	}
	return v
}

// runExperiment runs the table of All with the given ID.
func runExperiment(t *testing.T, id string, seed uint64, jobs int) (*Table, []*elastisim.Result) {
	t.Helper()
	for _, x := range All {
		if x.ID == id {
			tab, res, err := x.Run(seed, jobs)
			if err != nil {
				t.Fatal(err)
			}
			return tab, res
		}
	}
	t.Fatalf("no experiment %s in All", id)
	return nil, nil
}

func TestE1UtilizationShape(t *testing.T) {
	tab, res := runExperiment(t, "E1", 1, testJobs)
	rigid, mall := res[0], res[1]
	if len(tab.Rows) != 20 {
		t.Fatalf("rows %d", len(tab.Rows))
	}
	// Malleability must not hurt overall utilization or makespan.
	if mall.Summary.Utilization < rigid.Summary.Utilization-0.02 {
		t.Errorf("malleable utilization %.3f < rigid %.3f",
			mall.Summary.Utilization, rigid.Summary.Utilization)
	}
	if mall.Summary.Makespan > rigid.Summary.Makespan*1.02 {
		t.Errorf("malleable makespan %.1f > rigid %.1f",
			mall.Summary.Makespan, rigid.Summary.Makespan)
	}
}

func TestE2MalleableShareShape(t *testing.T) {
	tab, results := runExperiment(t, "E2", 1, testJobs)
	if len(results) != 5 {
		t.Fatalf("results %d", len(results))
	}
	// The headline claim: a fully malleable workload beats the rigid one.
	first, last := results[0].Summary, results[4].Summary
	if last.Makespan >= first.Makespan {
		t.Errorf("makespan did not improve: %.1f -> %.1f", first.Makespan, last.Makespan)
	}
	if last.Utilization <= first.Utilization {
		t.Errorf("utilization did not improve: %.3f -> %.3f", first.Utilization, last.Utilization)
	}
	// Reconfigurations only happen when malleable jobs exist.
	if results[0].Summary.Reconfigs != 0 {
		t.Error("rigid workload reconfigured")
	}
	if results[4].Summary.Reconfigs == 0 {
		t.Error("malleable workload never reconfigured")
	}
	if len(tab.Rows) != 5 {
		t.Errorf("table rows %d", len(tab.Rows))
	}
}

func TestE3SchedulersShape(t *testing.T) {
	tab, results := runExperiment(t, "E3", 1, testJobs)
	if len(tab.Rows) != 5 {
		t.Fatalf("rows %d", len(tab.Rows))
	}
	// Backfilling's guarantee is on waiting time, not makespan (which is
	// noisy on small finite workloads): EASY must improve FCFS's mean
	// wait, and the adaptive policy must be at least as good as EASY.
	fcfs := results[0].Summary
	easy := results[3].Summary
	adaptive := results[4].Summary
	if easy.MeanWait > fcfs.MeanWait {
		t.Errorf("EASY mean wait %.1f worse than FCFS %.1f", easy.MeanWait, fcfs.MeanWait)
	}
	if adaptive.MeanWait > easy.MeanWait*1.05 {
		t.Errorf("adaptive mean wait %.1f worse than EASY %.1f", adaptive.MeanWait, easy.MeanWait)
	}
	if adaptive.Makespan > fcfs.Makespan {
		t.Errorf("adaptive makespan %.1f worse than FCFS %.1f", adaptive.Makespan, fcfs.Makespan)
	}
	// Every algorithm finished the whole workload.
	for i, res := range results {
		if res.Summary.Completed+res.Summary.Killed != testJobs {
			t.Errorf("%s finished %d/%d", e3Algorithms[i], res.Summary.Completed+res.Summary.Killed, testJobs)
		}
	}
}

func TestE4BurstBufferShape(t *testing.T) {
	// E4's workload is a third of the batch size: 25 jobs.
	_, res := runExperiment(t, "E4", 1, 75)
	pfs, bb := res[0], res[1]
	// Burst buffers must relieve PFS contention.
	if bb.Summary.Makespan >= pfs.Summary.Makespan {
		t.Errorf("burst buffer makespan %.1f did not beat PFS %.1f",
			bb.Summary.Makespan, pfs.Summary.Makespan)
	}
}

func TestE5ScalabilityRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("scalability sweep in short mode")
	}
	tab, _ := runExperiment(t, "E5", 1, testJobs)
	if len(tab.Rows) != 9 {
		t.Fatalf("rows %d, want 9", len(tab.Rows))
	}
	// Events grow with job count within a machine size.
	for base := 0; base < 9; base += 3 {
		e1 := parseCell(t, tab.Rows[base][2])
		e3 := parseCell(t, tab.Rows[base+2][2])
		if e3 <= e1 {
			t.Errorf("events did not grow with jobs: %v -> %v", e1, e3)
		}
	}
}

func TestE6ValidationExact(t *testing.T) {
	tab, res := runExperiment(t, "E6", 1, testJobs)
	if len(res) != 7 {
		t.Fatalf("cases %d", len(res))
	}
	for i, c := range e6Cases {
		sim := res[i].Records[0].Runtime()
		if err := relErr(sim, c.analytic); err > 0.01 {
			t.Errorf("%s: simulated %.4f vs analytic %.4f (err %.2f%%)",
				c.name, sim, c.analytic, err*100)
		}
	}
	if len(tab.Rows) != 7 {
		t.Errorf("table rows %d", len(tab.Rows))
	}
}

func TestE7EvolvingShape(t *testing.T) {
	tab, _ := runExperiment(t, "E7", 1, testJobs)
	var rec map[string]string = map[string]string{}
	for _, row := range tab.Rows {
		rec[row[0]] = row[1]
	}
	if rec["requests issued"] == "0" {
		t.Error("no evolving requests issued")
	}
	if rec["requests granted"] == "0" {
		t.Error("no requests granted")
	}
	peak := parseCell(t, rec["peak nodes"])
	initial := parseCell(t, rec["initial nodes"])
	if peak <= initial {
		t.Errorf("allocation never grew: initial %v, peak %v", initial, peak)
	}
	finalN := parseCell(t, rec["final nodes"])
	if finalN >= peak {
		t.Errorf("allocation never shrank: peak %v, final %v", peak, finalN)
	}
}

func TestE8ReconfigCostShape(t *testing.T) {
	_, results := runExperiment(t, "E8", 1, testJobs)
	if len(results) != 5 {
		t.Fatalf("results %d", len(results))
	}
	// Expensive reconfiguration must not make things better than free
	// reconfiguration.
	free := results[0].Summary.Makespan
	costly := results[len(results)-1].Summary.Makespan
	if costly < free*0.99 {
		t.Errorf("300s reconfig cost beat free reconfig: %.1f vs %.1f", costly, free)
	}
}

func TestAblationInvocation(t *testing.T) {
	tab, _ := runExperiment(t, "A1", 1, testJobs)
	if len(tab.Rows) != 3 {
		t.Fatalf("rows %d", len(tab.Rows))
	}
	// Event-driven should beat coarse periodic scheduling on makespan.
	ev := parseCell(t, tab.Rows[0][1])
	coarse := parseCell(t, tab.Rows[2][1])
	if ev > coarse {
		t.Errorf("event-driven makespan %v worse than periodic-300s %v", ev, coarse)
	}
}

func TestAblationFairness(t *testing.T) {
	tab, _ := runExperiment(t, "A2", 1, testJobs)
	if len(tab.Rows) != 2 {
		t.Fatalf("rows %d", len(tab.Rows))
	}
	// Analytic expectations: narrow read takes 4 s under both policies;
	// the wide read takes 4 s under max-min and 7 s under equal split
	// (40 GB/s instead of 70 GB/s until the narrow job finishes, then
	// the remainder alone at min(80, 160) = 80 GB/s:
	// 4s*40 = 160 GB done, 120 GB left at 80 GB/s -> 5.5 s total).
	maxminWide := parseCell(t, tab.Rows[0][2])
	equalWide := parseCell(t, tab.Rows[1][2])
	if maxminWide > 4.001 || maxminWide < 3.999 {
		t.Errorf("max-min wide read %v, want 4", maxminWide)
	}
	if equalWide <= maxminWide {
		t.Errorf("equal split (%v) should be slower than max-min (%v)", equalWide, maxminWide)
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{
		ID:     "X",
		Title:  "demo",
		Header: []string{"a", "bb"},
	}
	tab.AddRow("1", "2")
	tab.AddRow("longer", "x")
	tab.AddNote("note %d", 7)
	s := tab.String()
	for _, want := range []string{"X — demo", "a       bb", "longer", "note: note 7"} {
		if !strings.Contains(s, want) {
			t.Errorf("table output missing %q:\n%s", want, s)
		}
	}
	md := tab.Markdown()
	for _, want := range []string{"### X — demo", "| a | bb |", "| longer | x |", "> note 7"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}
}

func TestAblationMoldable(t *testing.T) {
	tab, _ := runExperiment(t, "A3", 1, testJobs)
	if len(tab.Rows) != 4 {
		t.Fatalf("rows %d", len(tab.Rows))
	}
	// All four policies must finish the workload (cells parse as numbers).
	for _, row := range tab.Rows {
		if parseCell(t, row[1]) <= 0 {
			t.Errorf("%s makespan %s", row[0], row[1])
		}
	}
}

func TestAblationFairShare(t *testing.T) {
	tab, _ := runExperiment(t, "A4", 1, 60)
	if len(tab.Rows) != 3 {
		t.Fatalf("rows %d", len(tab.Rows))
	}
	// Fair share must give the light users a better wait ratio than FCFS.
	fcfsRatio := parseCell(t, tab.Rows[0][3])
	fairRatio := parseCell(t, tab.Rows[2][3])
	if fairRatio >= fcfsRatio {
		t.Errorf("fairshare ratio %v not below fcfs %v", fairRatio, fcfsRatio)
	}
}

func TestE9TopologyShape(t *testing.T) {
	tab, results := runExperiment(t, "E9", 1, testJobs)
	if len(results) != 4 {
		t.Fatalf("results %d", len(results))
	}
	star := results[0].Summary.Makespan
	tree1 := results[1].Summary.Makespan
	tree16 := results[3].Summary.Makespan
	// A non-tapered tree must match the star exactly.
	if math.Abs(star-tree1) > 1e-6*star {
		t.Errorf("non-blocking tree %.1f != star %.1f", tree1, star)
	}
	// A 1:16 taper must hurt.
	if tree16 <= star*1.05 {
		t.Errorf("1:16 taper makespan %.1f not above star %.1f", tree16, star)
	}
	if len(tab.Rows) != 4 {
		t.Errorf("rows %d", len(tab.Rows))
	}
}

func TestSweepGrid(t *testing.T) {
	pts, err := Sweep(SweepConfig{
		Algorithms: []string{"fcfs", "adaptive"},
		Shares:     []float64{0, 1},
		Seeds:      []uint64{1, 2},
		Jobs:       20,
		Nodes:      32,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 8 {
		t.Fatalf("cells %d, want 8", len(pts))
	}
	// Determinism: identical cells from a second run match exactly.
	pts2, err := Sweep(SweepConfig{
		Algorithms: []string{"fcfs", "adaptive"},
		Shares:     []float64{0, 1},
		Seeds:      []uint64{1, 2},
		Jobs:       20,
		Nodes:      32,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range pts {
		if pts[i].Summary != pts2[i].Summary {
			t.Errorf("cell %d not deterministic", i)
		}
	}
	var buf strings.Builder
	if err := WriteSweepCSV(&buf, pts); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 9 {
		t.Errorf("CSV lines %d, want 9 (header + 8)", len(lines))
	}
	if !strings.HasPrefix(lines[0], "algorithm,malleable_share") {
		t.Errorf("header: %s", lines[0])
	}
}

func TestSweepDefaults(t *testing.T) {
	cfg := (&SweepConfig{Jobs: 5, Nodes: 16}).withDefaults()
	if len(cfg.Algorithms) != 3 || len(cfg.Shares) != 3 || len(cfg.Seeds) != 1 {
		t.Errorf("defaults: %+v", cfg)
	}
	if _, err := Sweep(SweepConfig{Algorithms: []string{"bogus"}, Jobs: 5, Nodes: 16}); err == nil {
		t.Error("unknown algorithm accepted")
	}
}
