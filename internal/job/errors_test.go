package job

import (
	"math"
	"strings"
	"testing"
)

// TestInvalidInputErrors pins the exact text of every error an invalid
// job, workload file, SWF trace or generator configuration produces, and
// which of several faults is reported first. Validation may be reorganised
// for speed; what a user reads must not change.
func TestInvalidInputErrors(t *testing.T) {
	// job builds a valid rigid job named "r" and applies mutate.
	job := func(mutate func(*Job)) func() error {
		return func() error {
			j := validRigid()
			mutate(j)
			return j.Validate(16)
		}
	}
	task := func(tk Task) func(*Job) {
		return func(j *Job) { j.App.Phases[0].Tasks[0] = tk }
	}
	malleable := func(j *Job) {
		j.Type = Malleable
		j.NumNodesMin, j.NumNodesMax = 2, 8
	}
	workload := func(jobs ...*Job) func() error {
		return func() error { return (&Workload{Jobs: jobs}).Validate(4) }
	}
	parse := func(src string) func() error {
		return func() error {
			_, err := ParseWorkload([]byte(src), 16)
			return err
		}
	}
	// taskFile is a one-job workload file whose only task is tk.
	taskFile := func(tk string) func() error {
		return parse(`{"jobs":[{"type":"rigid","submit_time":0,"num_nodes":1,"phases":[{"tasks":[` + tk + `]}]}]}`)
	}
	swf := func(trace string, opts SWFOptions) func() error {
		return func() error {
			_, err := ParseSWF(strings.NewReader(trace), opts)
			return err
		}
	}
	badCkpt := Config{Count: 3, Nodes: [2]int{1, 4}, NodeSpeed: 1e9, MachineNodes: 8, CheckpointInterval: "zeta + num_nodes_new"}

	for _, tc := range []struct {
		name string
		err  func() error
		want string
	}{
		// Job.Validate, branch by branch.
		{"unknown type", job(func(j *Job) { j.Type = "weird" }), `job r: unknown type "weird"`},
		{"NaN submit", job(func(j *Job) { j.SubmitTime = math.NaN() }), `job r: submit time NaN is not a finite number`},
		{"infinite submit", job(func(j *Job) { j.SubmitTime = math.Inf(-1) }), `job r: submit time -Inf is not a finite number`},
		{"negative submit", job(func(j *Job) { j.SubmitTime = -1 }), `job r: negative submit time`},
		{"NaN walltime", job(func(j *Job) { j.WallTimeLimit = math.NaN() }), `job r: walltime limit is NaN`},
		{"negative walltime", job(func(j *Job) { j.WallTimeLimit = -5 }), `job r: negative walltime limit`},
		{"rigid zero nodes", job(func(j *Job) { j.NumNodes = 0 }), `job r: rigid job needs num_nodes >= 1`},
		{"rigid too large", job(func(j *Job) { j.NumNodes = 99 }), `job r: requests 99 nodes, machine has 16`},
		{"bad range", job(func(j *Job) { malleable(j); j.NumNodesMin = 9 }), `job r: invalid node range [9,8]`},
		{"zero minimum", job(func(j *Job) { malleable(j); j.NumNodesMin = 0 }), `job r: invalid node range [0,8]`},
		{"minimum too large", job(func(j *Job) { malleable(j); j.NumNodesMin, j.NumNodesMax = 20, 30 }), `job r: minimum 20 nodes exceeds machine size 16`},
		{"nil app", job(func(j *Job) { j.App = nil }), `job r: empty application`},
		{"no phases", job(func(j *Job) { j.App = &Application{} }), `job r: empty application`},
		{"negative iterations", job(func(j *Job) { j.App.Phases[0].Iterations = -1 }), `job r: application phase 0: phase "main": negative iterations`},
		{"no tasks", job(func(j *Job) { j.App.Phases = append(j.App.Phases, Phase{Name: "idle"}) }), `job r: application phase 1: phase "idle": no tasks`},
		{"missing model", job(task(Task{Kind: TaskCompute})), `job r: application phase 0: phase "main": task "compute": missing cost model`},
		{"empty vector model", job(task(Task{Kind: TaskDelay, Model: &Model{}})), `job r: application phase 0: phase "main": task "delay": job: empty model`},
		{"comm without pattern", job(task(Task{Kind: TaskComm, Model: ConstModel(1)})), `job r: application phase 0: phase "main": task "comm": comm task needs a pattern`},
		{"unknown pattern", job(task(Task{Kind: TaskComm, Name: "halo", Model: ConstModel(1), Pattern: "mesh"})), `job r: application phase 0: phase "main": task "halo": unknown comm pattern "mesh"`},
		{"I/O without target", job(task(Task{Kind: TaskRead, Model: ConstModel(1)})), `job r: application phase 0: phase "main": task "read": I/O task needs a target`},
		{"unknown target", job(task(Task{Kind: TaskWrite, Model: ConstModel(1), Target: "tape"})), `job r: application phase 0: phase "main": task "write": unknown I/O target "tape"`},
		{"unknown kind", job(task(Task{Kind: "sleep", Model: ConstModel(1)})), `job r: application phase 0: phase "main": task "sleep": unknown kind "sleep"`},
		{"model checked before kind", job(task(Task{Kind: "sleep", Model: MustExprModel("nap")})), `job r: application phase 0: phase "main": task "sleep": expr: undefined variable "nap"`},
		{"unnamed job", job(func(j *Job) { j.Name, j.ID = "", 7; j.NumNodes = 0 }), `job job7: rigid job needs num_nodes >= 1`},

		// Undefined variables: the first in sorted order is named.
		{"task model variable", job(task(Task{Kind: TaskCompute, Model: MustExprModel("nope / num_nodes")})), `job r: application phase 0: phase "main": task "compute": expr: undefined variable "nope"`},
		{"task model several variables", job(task(Task{Kind: TaskCompute, Model: MustExprModel("zeta * flops + alpha / num_nodes + mu")})), `job r: application phase 0: phase "main": task "compute": expr: undefined variable "alpha"`},
		{"reconfiguration variables only in reconfig cost", job(task(Task{Kind: TaskCompute, Model: MustExprModel("num_nodes_new")})), `job r: application phase 0: phase "main": task "compute": expr: undefined variable "num_nodes_new"`},
		{"arguments of another job", job(func(j *Job) { j.Args = map[string]float64{"other": 1} }), `job r: application phase 0: phase "main": task "compute": expr: undefined variable "flops"`},
		{"reconfig cost variable", job(func(j *Job) { malleable(j); j.ReconfigCost = MustExprModel("mystery") }), `job r: reconfig cost: expr: undefined variable "mystery"`},
		{"reconfig cost several variables", job(func(j *Job) {
			malleable(j)
			j.ReconfigCost = MustExprModel("num_nodes_old * zz + flops / num_nodes_new + bb + walltime")
		}), `job r: reconfig cost: expr: undefined variable "bb"`},
		{"checkpoint interval variable", job(func(j *Job) { j.CheckpointInterval = MustExprModel("flops / num_nodes_old") }), `job r: checkpoint interval: expr: undefined variable "num_nodes_old"`},
		{"checkpoint interval several variables", job(func(j *Job) {
			j.CheckpointInterval = MustExprModel("phase + q + iterations * p + total_nodes")
		}), `job r: checkpoint interval: expr: undefined variable "p"`},
		{"task model before reconfig cost", job(func(j *Job) {
			j.App.Phases[0].Tasks[0].Model = MustExprModel("x1")
			j.ReconfigCost = MustExprModel("x0")
			j.CheckpointInterval = MustExprModel("x0")
		}), `job r: application phase 0: phase "main": task "compute": expr: undefined variable "x1"`},
		{"reconfig cost before checkpoint interval", job(func(j *Job) {
			j.ReconfigCost = MustExprModel("x2")
			j.CheckpointInterval = MustExprModel("x1")
		}), `job r: reconfig cost: expr: undefined variable "x2"`},
		{"empty vector reconfig cost", job(func(j *Job) { j.ReconfigCost = &Model{} }), `job r: reconfig cost: job: empty model`},

		// Workload.Validate: jobs first, then IDs, then dependencies.
		{"duplicate ID", workload(depJob(5, "a", 0), depJob(2, "b", 0), depJob(2, "c", 0), depJob(5, "d", 0)), `duplicate job ID 2`},
		{"duplicate ID, other order", workload(depJob(5, "a", 0), depJob(2, "b", 0), depJob(5, "c", 0), depJob(2, "d", 0)), `duplicate job ID 5`},
		{"duplicate sparse ID", workload(depJob(900000, "a", 0), depJob(1, "b", 0), depJob(900000, "c", 0), depJob(1, "d", 0)), `duplicate job ID 900000`},
		{"duplicate negative ID", workload(depJob(0, "a", 0), depJob(-3, "b", 0), depJob(-3, "c", 0)), `duplicate job ID -3`},
		{"invalid job before duplicate ID", workload(depJob(1, "a", 0), depJob(1, "b", -1)), `job b: negative submit time`},
		{"duplicate ID before dependencies", workload(depJob(0, "a", 0, 0), depJob(0, "b", 0)), `duplicate job ID 0`},
		{"self dependency", workload(depJob(0, "a", 0), depJob(1, "b", 0, 0, 1)), `job b depends on itself`},
		{"unknown dependency", workload(depJob(0, "a", 0, 7)), `job a depends on unknown job 7`},
		{"unknown sparse dependency", workload(depJob(900000, "a", 0), depJob(3, "b", 0, 900001)), `job b depends on unknown job 900001`},
		{"self before unknown", workload(depJob(0, "a", 0, 9), depJob(1, "b", 0, 1)), `job a depends on unknown job 9`},
		{"cycle", workload(depJob(0, "a", 0, 1), depJob(1, "b", 0, 0)), `dependency cycle involving job 0`},
		{"long cycle", workload(depJob(0, "a", 0), depJob(1, "b", 0, 3), depJob(2, "c", 0, 1), depJob(3, "d", 0, 2)), `dependency cycle involving job 1`},

		// Workload files.
		{"undecodable file", parse("{"), `job: decoding workload: unexpected end of JSON input`},
		{"no cost field", taskFile(`{"type":"compute"}`), `job job0 phase 0 task 0: job: task "compute" must have exactly one of flops/bytes/seconds/nodes`},
		{"two cost fields", taskFile(`{"type":"compute","flops":1,"bytes":1}`), `job job0 phase 0 task 0: job: task "compute" must have exactly one of flops/bytes/seconds/nodes`},
		{"four cost fields", taskFile(`{"type":"delay","flops":1,"bytes":1,"seconds":1,"nodes":1}`), `job job0 phase 0 task 0: job: task "delay" must have exactly one of flops/bytes/seconds/nodes`},
		{"compute given bytes", taskFile(`{"type":"compute","bytes":1}`), `job job0 phase 0 task 0: job: task kind "compute" given the wrong cost field`},
		{"comm given flops", taskFile(`{"type":"comm","pattern":"ring","flops":1}`), `job job0 phase 0 task 0: job: task kind "comm" given the wrong cost field`},
		{"read given seconds", taskFile(`{"type":"read","target":"pfs","seconds":1}`), `job job0 phase 0 task 0: job: task kind "read" given the wrong cost field`},
		{"write given nodes", taskFile(`{"type":"write","target":"pfs","nodes":1}`), `job job0 phase 0 task 0: job: task kind "write" given the wrong cost field`},
		{"delay given flops", taskFile(`{"type":"delay","flops":1}`), `job job0 phase 0 task 0: job: task kind "delay" given the wrong cost field`},
		{"evolving request given seconds", taskFile(`{"type":"evolving_request","seconds":1}`), `job job0 phase 0 task 0: job: task kind "evolving_request" given the wrong cost field`},
		{"unknown kind given a cost", taskFile(`{"type":"sleep","seconds":1}`), `job job0 phase 0 task 0: job: task kind "sleep" given the wrong cost field`},
		{"no type given a cost", taskFile(`{"flops":1}`), `job job0 phase 0 task 0: job: task kind "" given the wrong cost field`},
		{"empty vector in file", taskFile(`{"type":"compute","flops":{}}`), `job: decoding workload: job: empty vector model`},
		{"undefined variable in file", taskFile(`{"type":"compute","flops":"zork + aa"}`), `job job0: application phase 0: phase "": task "compute": expr: undefined variable "aa"`},
		{"unknown dependency name", parse(`{"jobs":[{"name":"a","type":"rigid","submit_time":0,"num_nodes":1,"dependencies":["b"],"phases":[{"tasks":[{"type":"delay","seconds":1}]}]}]}`), `job a depends on unknown job "b"`},
		{"ambiguous dependency name", parse(`{"jobs":[
			{"name":"a","type":"rigid","submit_time":0,"num_nodes":1,"phases":[{"tasks":[{"type":"delay","seconds":1}]}]},
			{"name":"a","type":"rigid","submit_time":0,"num_nodes":1,"phases":[{"tasks":[{"type":"delay","seconds":1}]}]},
			{"name":"c","type":"rigid","submit_time":0,"num_nodes":1,"dependencies":["a"],"phases":[{"tasks":[{"type":"delay","seconds":1}]}]}]}`),
			`job c dependency "a" is ambiguous (duplicate name)`},

		// SWF traces.
		{"SWF without node speed", swf("", SWFOptions{}), `job: SWF conversion requires a node speed`},
		{"SWF short line", swf("; header\n1 2 3\n", SWFOptions{NodeSpeed: 1}), `job: SWF line 2 has 3 fields, want 18`},
		{"SWF non-numeric field", swf("1 x 0 1 1 0 0 1 1 0 1 1 1 1 1 1 -1 -1", SWFOptions{NodeSpeed: 1}), `job: SWF line 1 field 1: strconv.ParseFloat: parsing "x": invalid syntax`},
		{"SWF non-finite field", swf("1 0 0 NaN 1 0 0 1 1 0 1 1 1 1 1 1 -1 -1", SWFOptions{NodeSpeed: 1}), `job: SWF line 1 field 3 (run time): non-finite value NaN`},
		{"SWF non-finite submit", func() error {
			w, err := ParseSWF(strings.NewReader("1 Inf 0 100 8 -1 -1 8 200 -1 1 1 1 1 1 1 -1 -1"), SWFOptions{NodeSpeed: 1e9})
			if err != nil {
				return err
			}
			return w.Validate(64)
		}, `job swf0: submit time +Inf is not a finite number`},

		// The generator refuses what it cannot have meant.
		{"stream", func() error {
			s, err := NewStream(badCkpt)
			if err != nil {
				return err
			}
			_, err = s.Next()
			return err
		}, `job: generated workload invalid: job sim0: checkpoint interval: expr: undefined variable "num_nodes_new"`},
		{"generate", func() error {
			_, err := Generate(badCkpt)
			return err
		}, `job: generated workload invalid: job sim0: checkpoint interval: expr: undefined variable "num_nodes_new"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.err()
			if err == nil {
				t.Fatalf("no error, want %q", tc.want)
			}
			if got := err.Error(); got != tc.want {
				t.Errorf("error\n  %s\nwant\n  %s", got, tc.want)
			}
		})
	}
}
