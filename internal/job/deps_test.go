package job

import (
	"strings"
	"testing"
)

func depJob(id int, name string, submit float64, deps ...ID) *Job {
	j := &Job{
		ID: ID(id), Name: name, Type: Rigid, SubmitTime: submit, NumNodes: 1,
		App:          simpleApp(),
		Args:         map[string]float64{"flops": 1e9},
		Dependencies: deps,
	}
	return j
}

func TestDependencyValidation(t *testing.T) {
	ok := &Workload{Jobs: []*Job{
		depJob(0, "a", 0),
		depJob(1, "b", 0, 0),
		depJob(2, "c", 0, 0, 1),
	}}
	if err := ok.Validate(4); err != nil {
		t.Errorf("valid DAG rejected: %v", err)
	}
	self := &Workload{Jobs: []*Job{depJob(0, "a", 0, 0)}}
	if err := self.Validate(4); err == nil || !strings.Contains(err.Error(), "itself") {
		t.Errorf("self-dependency: %v", err)
	}
	unknown := &Workload{Jobs: []*Job{depJob(0, "a", 0, 7)}}
	if err := unknown.Validate(4); err == nil || !strings.Contains(err.Error(), "unknown") {
		t.Errorf("unknown dependency: %v", err)
	}
	cycle := &Workload{Jobs: []*Job{
		depJob(0, "a", 0, 1),
		depJob(1, "b", 0, 0),
	}}
	if err := cycle.Validate(4); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("cycle: %v", err)
	}
}

// A repeated job ID is refused by Validate, naming the ID, so a run never
// starts with two jobs the engine would index as one.
func TestWorkloadRejectsDuplicateIDs(t *testing.T) {
	dup := &Workload{Jobs: []*Job{depJob(0, "a", 0), depJob(0, "b", 5)}}
	if err := dup.Validate(4); err == nil || !strings.Contains(err.Error(), "duplicate job ID 0") {
		t.Errorf("adjacent duplicate: %v", err)
	}
	apart := &Workload{Jobs: []*Job{depJob(3, "a", 0), depJob(1, "b", 1), depJob(3, "c", 2)}}
	if err := apart.Validate(4); err == nil || !strings.Contains(err.Error(), "duplicate job ID 3") {
		t.Errorf("non-adjacent duplicate: %v", err)
	}
}

func TestSortRemapsDependencies(t *testing.T) {
	// Job "late" (ID 0) submits later than "early" (ID 1) which depends
	// on it. After Sort, IDs swap and the dependency must follow.
	late := depJob(0, "late", 100)
	early := depJob(1, "early", 10, 0) // depends on "late"
	w := &Workload{Jobs: []*Job{late, early}}
	w.Sort()
	if w.Jobs[0].Name != "early" || w.Jobs[1].Name != "late" {
		t.Fatalf("sort order wrong: %s, %s", w.Jobs[0].Name, w.Jobs[1].Name)
	}
	if len(w.Jobs[0].Dependencies) != 1 || w.Jobs[0].Dependencies[0] != 1 {
		t.Errorf("dependency not remapped: %v", w.Jobs[0].Dependencies)
	}
}

func TestWorkloadJSONDependenciesByName(t *testing.T) {
	src := `{
	  "jobs": [
	    {"name": "prep", "type": "rigid", "submit_time": 0, "num_nodes": 1,
	     "phases": [{"tasks": [{"type": "delay", "seconds": 1}]}]},
	    {"name": "main", "type": "rigid", "submit_time": 0, "num_nodes": 1,
	     "dependencies": ["prep"],
	     "phases": [{"tasks": [{"type": "delay", "seconds": 1}]}]}
	  ]
	}`
	w, err := ParseWorkload([]byte(src), 4)
	if err != nil {
		t.Fatal(err)
	}
	var mainJob *Job
	for _, j := range w.Jobs {
		if j.Name == "main" {
			mainJob = j
		}
	}
	if mainJob == nil || len(mainJob.Dependencies) != 1 {
		t.Fatalf("dependency lost: %+v", mainJob)
	}
	if w.Jobs[mainJob.Dependencies[0]].Name != "prep" {
		t.Errorf("dependency points at %q", w.Jobs[mainJob.Dependencies[0]].Name)
	}
	// Round trip preserves it.
	out, err := w.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	w2, err := ParseWorkload(out, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range w2.Jobs {
		if j.Name == "main" && len(j.Dependencies) != 1 {
			t.Errorf("round trip lost dependency")
		}
	}
	// Unknown dependency name.
	bad := strings.Replace(src, `"prep"]`, `"nope"]`, 1)
	if _, err := ParseWorkload([]byte(bad), 4); err == nil {
		t.Error("unknown dependency name accepted")
	}
}

func TestSWFPrecedingJobDependency(t *testing.T) {
	// Fields 10..17: status user group app queue partition preceding think.
	trace := `
  1  0   0  100  4 -1 -1  4  200 -1 1 1 1 1 1 1 -1 -1
  2  10  0  100  4 -1 -1  4  200 -1 1 1 1 1 1 1  1 -1
  3  20  0  100  4 -1 -1  4  200 -1 1 1 1 1 1 1  2 -1
`
	w, err := ParseSWF(strings.NewReader(trace), SWFOptions{NodeSpeed: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Jobs) != 3 {
		t.Fatalf("jobs %d", len(w.Jobs))
	}
	// Job 3 (index 2) preceded by trace job 2 (index 1).
	if deps := w.Jobs[2].Dependencies; len(deps) != 1 || deps[0] != 1 {
		t.Errorf("deps of third job: %v", deps)
	}
	// Job 2's preceding field is 1 -> depends on first job.
	if deps := w.Jobs[1].Dependencies; len(deps) != 1 || deps[0] != 0 {
		t.Errorf("deps of second job: %v", deps)
	}
	if len(w.Jobs[0].Dependencies) != 0 {
		t.Errorf("first job has deps: %v", w.Jobs[0].Dependencies)
	}
	if err := w.Validate(8); err != nil {
		t.Errorf("SWF deps invalid: %v", err)
	}
}

func TestUserFieldJSON(t *testing.T) {
	src := `{
	  "jobs": [
	    {"name": "j", "type": "rigid", "submit_time": 0, "num_nodes": 1, "user": "alice",
	     "phases": [{"tasks": [{"type": "delay", "seconds": 1}]}]}
	  ]
	}`
	w, err := ParseWorkload([]byte(src), 4)
	if err != nil {
		t.Fatal(err)
	}
	if w.Jobs[0].User != "alice" {
		t.Errorf("user = %q", w.Jobs[0].User)
	}
	out, _ := w.MarshalJSON()
	if !strings.Contains(string(out), `"user": "alice"`) {
		t.Error("user not serialized")
	}
}
