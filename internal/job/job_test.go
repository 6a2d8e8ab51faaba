package job

import (
	"math"
	"strings"
	"testing"

	"repro/internal/expr"
)

func simpleApp() *Application {
	return &Application{Phases: []Phase{{
		Name:  "main",
		Tasks: []Task{{Kind: TaskCompute, Model: MustExprModel("flops / num_nodes")}},
	}}}
}

func validRigid() *Job {
	return &Job{
		Name:       "r",
		Type:       Rigid,
		SubmitTime: 0,
		NumNodes:   4,
		Args:       map[string]float64{"flops": 1e12},
		App:        simpleApp(),
	}
}

func TestTypeHelpers(t *testing.T) {
	if !Malleable.Adaptive() || !Evolving.Adaptive() {
		t.Error("malleable/evolving must be adaptive")
	}
	if Rigid.Adaptive() || Moldable.Adaptive() {
		t.Error("rigid/moldable must not be adaptive")
	}
	for _, typ := range []Type{Rigid, Moldable, Malleable, Evolving} {
		if !typ.Valid() {
			t.Errorf("%s reported invalid", typ)
		}
	}
	if Type("elastic").Valid() {
		t.Error("unknown type reported valid")
	}
}

func TestJobValidate(t *testing.T) {
	j := validRigid()
	if err := j.Validate(16); err != nil {
		t.Fatalf("valid job rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Job)
		substr string
	}{
		{"bad type", func(j *Job) { j.Type = "weird" }, "unknown type"},
		{"negative submit", func(j *Job) { j.SubmitTime = -1 }, "submit"},
		{"negative walltime", func(j *Job) { j.WallTimeLimit = -5 }, "walltime"},
		{"NaN submit", func(j *Job) { j.SubmitTime = math.NaN() }, "submit time NaN"},
		{"infinite submit", func(j *Job) { j.SubmitTime = math.Inf(1) }, "submit time +Inf"},
		{"negative infinite submit", func(j *Job) { j.SubmitTime = math.Inf(-1) }, "submit time -Inf"},
		{"NaN walltime", func(j *Job) { j.WallTimeLimit = math.NaN() }, "walltime limit is NaN"},
		{"zero nodes", func(j *Job) { j.NumNodes = 0 }, "num_nodes"},
		{"too large", func(j *Job) { j.NumNodes = 99 }, "machine"},
		{"no app", func(j *Job) { j.App = nil }, "empty application"},
		{"bad var", func(j *Job) {
			j.App.Phases[0].Tasks[0].Model = MustExprModel("nope / num_nodes")
		}, "nope"},
		{"malleable bad range", func(j *Job) {
			j.Type = Malleable
			j.NumNodesMin = 8
			j.NumNodesMax = 4
		}, "node range"},
		{"malleable min too big", func(j *Job) {
			j.Type = Malleable
			j.NumNodesMin = 99
			j.NumNodesMax = 120
		}, "machine size"},
		{"bad reconfig var", func(j *Job) {
			j.ReconfigCost = MustExprModel("mystery")
		}, "mystery"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			j := validRigid()
			tc.mutate(j)
			err := j.Validate(16)
			if err == nil {
				t.Fatal("Validate passed, want error")
			}
			if !strings.Contains(err.Error(), tc.substr) {
				t.Errorf("error %q does not mention %q", err, tc.substr)
			}
		})
	}
}

func TestReconfigVarsAllowed(t *testing.T) {
	j := validRigid()
	j.Type = Malleable
	j.NumNodesMin, j.NumNodesMax = 2, 8
	j.ReconfigCost = MustExprModel("0.1 + flops/(num_nodes_new*1T) + num_nodes_old*0")
	if err := j.Validate(16); err != nil {
		t.Errorf("reconfig vars rejected: %v", err)
	}
}

func TestMinMaxNodes(t *testing.T) {
	j := validRigid()
	if j.MinNodes() != 4 || j.MaxNodes() != 4 {
		t.Errorf("rigid min/max = %d/%d", j.MinNodes(), j.MaxNodes())
	}
	j.Type = Malleable
	j.NumNodesMin, j.NumNodesMax = 2, 8
	if j.MinNodes() != 2 || j.MaxNodes() != 8 {
		t.Errorf("malleable min/max = %d/%d", j.MinNodes(), j.MaxNodes())
	}
}

func TestTaskValidate(t *testing.T) {
	allowed := (&Job{Args: map[string]float64{"b": 1}}).hasVar
	cases := []struct {
		name string
		task Task
		ok   bool
	}{
		{"compute", Task{Kind: TaskCompute, Model: MustExprModel("b/num_nodes")}, true},
		{"comm ok", Task{Kind: TaskComm, Model: ConstModel(1), Pattern: PatternAllReduce}, true},
		{"comm no pattern", Task{Kind: TaskComm, Model: ConstModel(1)}, false},
		{"comm bad pattern", Task{Kind: TaskComm, Model: ConstModel(1), Pattern: "mesh"}, false},
		{"read ok", Task{Kind: TaskRead, Model: ConstModel(1), Target: TargetPFS}, true},
		{"write bb", Task{Kind: TaskWrite, Model: ConstModel(1), Target: TargetBB}, true},
		{"io no target", Task{Kind: TaskRead, Model: ConstModel(1)}, false},
		{"io bad target", Task{Kind: TaskWrite, Model: ConstModel(1), Target: "tape"}, false},
		{"delay", Task{Kind: TaskDelay, Model: ConstModel(5)}, true},
		{"evolve", Task{Kind: TaskEvolvingRequest, Model: ConstModel(8)}, true},
		{"no model", Task{Kind: TaskCompute}, false},
		{"bad kind", Task{Kind: "sleep", Model: ConstModel(1)}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.task.Validate(allowed)
			if tc.ok && err != nil {
				t.Errorf("unexpected error: %v", err)
			}
			if !tc.ok && err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestPhaseValidate(t *testing.T) {
	allowed := (&Job{}).hasVar
	p := Phase{Tasks: []Task{{Kind: TaskDelay, Model: ConstModel(1)}}}
	if err := p.Validate(allowed); err != nil {
		t.Errorf("valid phase rejected: %v", err)
	}
	empty := Phase{Name: "e"}
	if err := empty.Validate(allowed); err == nil {
		t.Error("empty phase accepted")
	}
	neg := Phase{Iterations: -1, Tasks: p.Tasks}
	if err := neg.Validate(allowed); err == nil {
		t.Error("negative iterations accepted")
	}
}

func TestEffectiveIterations(t *testing.T) {
	if (&Phase{}).EffectiveIterations() != 1 {
		t.Error("default iterations != 1")
	}
	if (&Phase{Iterations: 7}).EffectiveIterations() != 7 {
		t.Error("explicit iterations lost")
	}
}

func TestApplicationHelpers(t *testing.T) {
	app := &Application{Phases: []Phase{
		{Iterations: 5, SchedulingPoint: true, Tasks: []Task{{Kind: TaskDelay, Model: ConstModel(1)}}},
		{Tasks: []Task{{Kind: TaskDelay, Model: ConstModel(1)}}},
		{Iterations: 3, SchedulingPoint: true, Tasks: []Task{{Kind: TaskDelay, Model: ConstModel(1)}}},
	}}
	if got := app.TotalSchedulingPoints(); got != 8 {
		t.Errorf("TotalSchedulingPoints = %d, want 8", got)
	}
	if app.HasEvolvingRequests() {
		t.Error("no evolving requests present")
	}
	app.Phases[0].Tasks = append(app.Phases[0].Tasks, Task{Kind: TaskEvolvingRequest, Model: ConstModel(4)})
	if !app.HasEvolvingRequests() {
		t.Error("evolving request not detected")
	}
}

func TestModelExpr(t *testing.T) {
	m := MustExprModel("flops / num_nodes")
	env := expr.Vars{"flops": 100.0, "num_nodes": 4}
	v, err := m.Eval(env, 4)
	if err != nil || v != 25 {
		t.Errorf("Eval = %v, %v", v, err)
	}
	if m.IsVector() {
		t.Error("expression model reported vector")
	}
}

func TestModelVector(t *testing.T) {
	m, err := NewVectorModel(map[int]float64{1: 100, 4: 30, 16: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !m.IsVector() {
		t.Error("vector model not reported")
	}
	check := func(nodes int, want float64) {
		t.Helper()
		v, err := m.Eval(nil, nodes)
		if err != nil {
			t.Fatal(err)
		}
		if v != want {
			t.Errorf("Eval(%d) = %v, want %v", nodes, v, want)
		}
	}
	check(1, 100)
	check(4, 30)
	check(16, 10)
	// Clamping beyond the ends.
	check(32, 10)
	// Note: 0 nodes errors.
	if _, err := m.Eval(nil, 0); err == nil {
		t.Error("Eval(0) succeeded")
	}
	// Interpolation between points is monotone and in range.
	v8, _ := m.Eval(nil, 8)
	if v8 >= 30 || v8 <= 10 {
		t.Errorf("interpolated Eval(8) = %v, want within (10,30)", v8)
	}
}

func TestVectorModelGeometricInterpolation(t *testing.T) {
	// With points (2,10) and (8,40), geometric interpolation at 4 gives
	// 10 * (40/10)^(log(4/2)/log(8/2)) = 10 * 4^0.5 = 20.
	m, err := NewVectorModel(map[int]float64{2: 10, 8: 40})
	if err != nil {
		t.Fatal(err)
	}
	v, err := m.Eval(nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	if v < 19.999 || v > 20.001 {
		t.Errorf("Eval(4) = %v, want 20", v)
	}
}

func TestVectorModelErrors(t *testing.T) {
	if _, err := NewVectorModel(nil); err == nil {
		t.Error("empty vector accepted")
	}
	if _, err := NewVectorModel(map[int]float64{0: 1}); err == nil {
		t.Error("zero node count accepted")
	}
	if _, err := NewVectorModel(map[int]float64{2: -1}); err == nil {
		t.Error("negative value accepted")
	}
}

func TestModelJSON(t *testing.T) {
	var m Model
	if err := m.UnmarshalJSON([]byte(`"a+1"`)); err != nil {
		t.Fatal(err)
	}
	if m.String() != "a+1" {
		t.Errorf("String = %q", m.String())
	}
	if err := m.UnmarshalJSON([]byte(`42`)); err != nil {
		t.Fatal(err)
	}
	v, _ := m.Eval(nil, 1)
	if v != 42 {
		t.Errorf("const model = %v", v)
	}
	if err := m.UnmarshalJSON([]byte(`{"2": 10, "8": 40}`)); err != nil {
		t.Fatal(err)
	}
	if !m.IsVector() {
		t.Error("vector JSON not detected")
	}
	out, err := m.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var m2 Model
	if err := m2.UnmarshalJSON(out); err != nil {
		t.Fatal(err)
	}
	v2, _ := m2.Eval(nil, 8)
	if v2 != 40 {
		t.Errorf("round-tripped vector Eval(8) = %v", v2)
	}
	// Errors.
	for _, bad := range []string{`"("`, `{"x": 1}`, `[1]`, `{"2": 1, "0": 5}`} {
		var mm Model
		if err := mm.UnmarshalJSON([]byte(bad)); err == nil {
			t.Errorf("bad model %s accepted", bad)
		}
	}
}
