package job

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"

	"repro/internal/unit"
)

// Workload is an ordered collection of jobs.
type Workload struct {
	// Name labels the workload in reports.
	Name string
	// Jobs is sorted by submit time (ties by ID).
	Jobs []*Job
}

// Validate checks every job against the machine size and verifies that job
// IDs are unique and the dependency graph is well-formed (references exist,
// no self-dependency, acyclic).
func (w *Workload) Validate(totalNodes int) error {
	for _, j := range w.Jobs {
		if err := j.Validate(totalNodes); err != nil {
			return err
		}
	}
	return w.validateDependencies()
}

// validateDependencies checks that job IDs are unique and that every
// dependency names another job of the workload, without cycles. A workload
// without dependencies (every generated one, and an SWF trace without
// preceding-job chains) stops after the ID check.
func (w *Workload) validateDependencies() error {
	if err := w.checkUniqueIDs(); err != nil {
		return err
	}
	if !slices.ContainsFunc(w.Jobs, func(j *Job) bool { return len(j.Dependencies) > 0 }) {
		return nil
	}
	byID := make(map[ID]*Job, len(w.Jobs))
	for _, j := range w.Jobs {
		byID[j.ID] = j
	}
	for _, j := range w.Jobs {
		for _, dep := range j.Dependencies {
			if dep == j.ID {
				return fmt.Errorf("job %s depends on itself", j.Label())
			}
			if _, ok := byID[dep]; !ok {
				return fmt.Errorf("job %s depends on unknown job %d", j.Label(), dep)
			}
		}
	}
	// Cycle detection: recursive DFS with colors.
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[ID]int, len(w.Jobs))
	var visit func(id ID) error
	visit = func(id ID) error {
		switch color[id] {
		case gray:
			return fmt.Errorf("dependency cycle involving job %d", id)
		case black:
			return nil
		}
		color[id] = gray
		for _, dep := range byID[id].Dependencies {
			if err := visit(dep); err != nil {
				return err
			}
		}
		color[id] = black
		return nil
	}
	for _, j := range w.Jobs {
		if err := visit(j.ID); err != nil {
			return err
		}
	}
	return nil
}

// checkUniqueIDs reports the first job whose ID an earlier job already
// has. Compact IDs are checked over a bitset, others over a map.
func (w *Workload) checkUniqueIDs() error {
	if maxID, ok := w.CompactIDs(); ok {
		seen := make([]uint64, int(maxID)/64+1)
		for _, j := range w.Jobs {
			word, bit := j.ID/64, uint64(1)<<(j.ID%64)
			if seen[word]&bit != 0 {
				return fmt.Errorf("duplicate job ID %d", j.ID)
			}
			seen[word] |= bit
		}
		return nil
	}
	seen := make(map[ID]bool, len(w.Jobs))
	for _, j := range w.Jobs {
		if seen[j.ID] {
			return fmt.Errorf("duplicate job ID %d", j.ID)
		}
		seen[j.ID] = true
	}
	return nil
}

// CompactIDs returns the largest job ID (-1 for an empty workload) and
// whether the IDs are compact: none negative, and the largest below
// 2n+1024 for n jobs, so that a slice of maxID+1 entries indexes them.
// ParseWorkload and Sort establish this with dense IDs; hand-assembled
// workloads may use arbitrary ones.
func (w *Workload) CompactIDs() (maxID ID, ok bool) {
	minID := ID(0)
	maxID = -1
	for _, j := range w.Jobs {
		minID, maxID = min(minID, j.ID), max(maxID, j.ID)
	}
	return maxID, minID >= 0 && int(maxID) < 2*len(w.Jobs)+1024
}

// Sort orders jobs by (submit time, ID) and reassigns dense IDs in that
// order, remapping dependency references accordingly. Call after
// assembling a workload by hand; IDs must be unique beforehand when
// dependencies are used.
func (w *Workload) Sort() {
	sort.SliceStable(w.Jobs, func(i, j int) bool {
		if w.Jobs[i].SubmitTime != w.Jobs[j].SubmitTime {
			return w.Jobs[i].SubmitTime < w.Jobs[j].SubmitTime
		}
		return w.Jobs[i].ID < w.Jobs[j].ID
	})
	remap := make(map[ID]ID, len(w.Jobs))
	for i, j := range w.Jobs {
		remap[j.ID] = ID(i)
	}
	for _, j := range w.Jobs {
		for k, dep := range j.Dependencies {
			if newID, ok := remap[dep]; ok {
				j.Dependencies[k] = newID
			}
		}
	}
	for i, j := range w.Jobs {
		j.ID = ID(i)
	}
}

// --- JSON form -----------------------------------------------------------

// taskJSON is the serialized form of a Task. The cost field name depends on
// the kind (flops/bytes/seconds/nodes), which keeps workload files readable.
type taskJSON struct {
	Type    TaskKind    `json:"type"`
	Name    string      `json:"name,omitempty"`
	Flops   *Model      `json:"flops,omitempty"`
	Bytes   *Model      `json:"bytes,omitempty"`
	Seconds *Model      `json:"seconds,omitempty"`
	Nodes   *Model      `json:"nodes,omitempty"`
	Pattern CommPattern `json:"pattern,omitempty"`
	Target  IOTarget    `json:"target,omitempty"`
}

type phaseJSON struct {
	Name            string     `json:"name,omitempty"`
	Iterations      int        `json:"iterations,omitempty"`
	SchedulingPoint bool       `json:"scheduling_point,omitempty"`
	Tasks           []taskJSON `json:"tasks"`
}

type jobJSON struct {
	Name         string                   `json:"name,omitempty"`
	Type         Type                     `json:"type"`
	SubmitTime   unit.Quantity            `json:"submit_time"`
	NumNodes     int                      `json:"num_nodes,omitempty"`
	NumNodesMin  int                      `json:"num_nodes_min,omitempty"`
	NumNodesMax  int                      `json:"num_nodes_max,omitempty"`
	WallTime     unit.Quantity            `json:"walltime,omitempty"`
	User         string                   `json:"user,omitempty"`
	Args         map[string]unit.Quantity `json:"args,omitempty"`
	ReconfigCost *Model                   `json:"reconfig_cost,omitempty"`
	// CheckpointInterval bounds node-failure badput (see Job).
	CheckpointInterval *Model `json:"checkpoint_interval,omitempty"`
	// Dependencies reference other jobs by name ("afterany" semantics).
	Dependencies []string    `json:"dependencies,omitempty"`
	Phases       []phaseJSON `json:"phases"`
}

type workloadJSON struct {
	Name string    `json:"name,omitempty"`
	Jobs []jobJSON `json:"jobs"`
}

func (t *taskJSON) model() (*Model, error) {
	given := 0
	for _, m := range [...]*Model{t.Flops, t.Bytes, t.Seconds, t.Nodes} {
		if m != nil {
			given++
		}
	}
	if given != 1 {
		return nil, fmt.Errorf("job: task %q must have exactly one of flops/bytes/seconds/nodes", t.Type)
	}
	// Check the field name matches the kind.
	var want *Model
	switch t.Type {
	case TaskCompute:
		want = t.Flops
	case TaskComm, TaskRead, TaskWrite:
		want = t.Bytes
	case TaskDelay:
		want = t.Seconds
	case TaskEvolvingRequest:
		want = t.Nodes
	}
	if want == nil {
		return nil, fmt.Errorf("job: task kind %q given the wrong cost field", t.Type)
	}
	return want, nil
}

// ParseWorkload decodes and validates a JSON workload for a machine of
// totalNodes nodes.
func ParseWorkload(data []byte, totalNodes int) (*Workload, error) {
	var wj workloadJSON
	if err := json.Unmarshal(data, &wj); err != nil {
		return nil, fmt.Errorf("job: decoding workload: %w", err)
	}
	w := &Workload{Name: wj.Name}
	for i := range wj.Jobs {
		jj := &wj.Jobs[i]
		j := &Job{
			ID:                 ID(i),
			Name:               jj.Name,
			Type:               jj.Type,
			SubmitTime:         float64(jj.SubmitTime),
			NumNodes:           jj.NumNodes,
			NumNodesMin:        jj.NumNodesMin,
			NumNodesMax:        jj.NumNodesMax,
			WallTimeLimit:      float64(jj.WallTime),
			User:               jj.User,
			ReconfigCost:       jj.ReconfigCost,
			CheckpointInterval: jj.CheckpointInterval,
			App:                &Application{},
		}
		if len(jj.Args) > 0 {
			j.Args = make(map[string]float64, len(jj.Args))
			for k, v := range jj.Args {
				j.Args[k] = float64(v)
			}
		}
		for pi := range jj.Phases {
			pj := &jj.Phases[pi]
			phase := Phase{
				Name:            pj.Name,
				Iterations:      pj.Iterations,
				SchedulingPoint: pj.SchedulingPoint,
			}
			for ti := range pj.Tasks {
				tj := &pj.Tasks[ti]
				model, err := tj.model()
				if err != nil {
					return nil, fmt.Errorf("job %s phase %d task %d: %w", j.Label(), pi, ti, err)
				}
				phase.Tasks = append(phase.Tasks, Task{
					Kind:    tj.Type,
					Name:    tj.Name,
					Model:   model,
					Pattern: tj.Pattern,
					Target:  tj.Target,
				})
			}
			j.App.Phases = append(j.App.Phases, phase)
		}
		w.Jobs = append(w.Jobs, j)
	}
	// Resolve name-based dependencies before sorting (IDs still match the
	// file order here).
	byName := map[string]ID{}
	for _, j := range w.Jobs {
		label := j.Label()
		if _, dup := byName[label]; dup {
			byName[label] = -1 // ambiguous
		} else {
			byName[label] = j.ID
		}
	}
	for i := range wj.Jobs {
		for _, depName := range wj.Jobs[i].Dependencies {
			id, ok := byName[depName]
			if !ok {
				return nil, fmt.Errorf("job %s depends on unknown job %q", w.Jobs[i].Label(), depName)
			}
			if id < 0 {
				return nil, fmt.Errorf("job %s dependency %q is ambiguous (duplicate name)", w.Jobs[i].Label(), depName)
			}
			w.Jobs[i].Dependencies = append(w.Jobs[i].Dependencies, id)
		}
	}
	w.Sort()
	if err := w.Validate(totalNodes); err != nil {
		return nil, err
	}
	return w, nil
}

// jobToJSON converts one job into its serialized form. depLabel resolves
// dependency IDs to job labels; it may be nil when the job has no
// dependencies.
func jobToJSON(j *Job, depLabel func(ID) string) jobJSON {
	jj := jobJSON{
		Name:               j.Name,
		Type:               j.Type,
		SubmitTime:         unit.Quantity(j.SubmitTime),
		NumNodes:           j.NumNodes,
		NumNodesMin:        j.NumNodesMin,
		NumNodesMax:        j.NumNodesMax,
		WallTime:           unit.Quantity(j.WallTimeLimit),
		User:               j.User,
		ReconfigCost:       j.ReconfigCost,
		CheckpointInterval: j.CheckpointInterval,
	}
	for _, dep := range j.Dependencies {
		jj.Dependencies = append(jj.Dependencies, depLabel(dep))
	}
	if len(j.Args) > 0 {
		jj.Args = make(map[string]unit.Quantity, len(j.Args))
		for k, v := range j.Args {
			jj.Args[k] = unit.Quantity(v)
		}
	}
	for _, p := range j.App.Phases {
		pj := phaseJSON{
			Name:            p.Name,
			Iterations:      p.Iterations,
			SchedulingPoint: p.SchedulingPoint,
		}
		for _, t := range p.Tasks {
			tj := taskJSON{Type: t.Kind, Name: t.Name, Pattern: t.Pattern, Target: t.Target}
			switch t.Kind {
			case TaskCompute:
				tj.Flops = t.Model
			case TaskComm, TaskRead, TaskWrite:
				tj.Bytes = t.Model
			case TaskDelay:
				tj.Seconds = t.Model
			case TaskEvolvingRequest:
				tj.Nodes = t.Model
			}
			pj.Tasks = append(pj.Tasks, tj)
		}
		jj.Phases = append(jj.Phases, pj)
	}
	return jj
}

// MarshalJSON serializes the workload into its canonical JSON form.
func (w *Workload) MarshalJSON() ([]byte, error) {
	wj := workloadJSON{Name: w.Name}
	for _, j := range w.Jobs {
		wj.Jobs = append(wj.Jobs, jobToJSON(j, func(dep ID) string {
			return w.Jobs[dep].Label()
		}))
	}
	return json.MarshalIndent(&wj, "", "  ")
}

// WorkloadWriter emits the canonical workload JSON one job at a time, so
// a million-job workload serializes in constant memory. For dependency-free
// workloads the output is byte-identical to Workload.MarshalJSON
// (dependencies need the whole job list to resolve labels, so streamed
// jobs must not have any).
type WorkloadWriter struct {
	dst     io.Writer
	name    string
	n       int
	started bool
}

// NewWorkloadWriter starts writing a workload named name to dst.
func NewWorkloadWriter(dst io.Writer, name string) *WorkloadWriter {
	return &WorkloadWriter{dst: dst, name: name}
}

func (ww *WorkloadWriter) begin() error {
	if ww.started {
		return nil
	}
	ww.started = true
	if ww.name != "" {
		label, err := json.Marshal(ww.name)
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(ww.dst, "{\n  \"name\": %s,\n  \"jobs\": [", label)
		return err
	}
	_, err := io.WriteString(ww.dst, "{\n  \"jobs\": [")
	return err
}

// WriteJob appends one job to the stream.
func (ww *WorkloadWriter) WriteJob(j *Job) error {
	if len(j.Dependencies) > 0 {
		return fmt.Errorf("job: streamed job %s has dependencies; use Workload.MarshalJSON", j.Label())
	}
	if err := ww.begin(); err != nil {
		return err
	}
	jj := jobToJSON(j, nil)
	data, err := json.MarshalIndent(&jj, "    ", "  ")
	if err != nil {
		return err
	}
	sep := ",\n    "
	if ww.n == 0 {
		sep = "\n    "
	}
	ww.n++
	if _, err := io.WriteString(ww.dst, sep); err != nil {
		return err
	}
	_, err = ww.dst.Write(data)
	return err
}

// Close terminates the JSON document. It does not close the underlying
// writer.
func (ww *WorkloadWriter) Close() error {
	if err := ww.begin(); err != nil {
		return err
	}
	trailer := "\n  ]\n}"
	if ww.n == 0 {
		trailer = "]\n}"
	}
	_, err := io.WriteString(ww.dst, trailer)
	return err
}
