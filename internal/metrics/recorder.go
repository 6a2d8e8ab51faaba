package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"

	"repro/internal/job"
)

// JobStatus is a job's terminal outcome.
type JobStatus string

// Job completion statuses.
const (
	// StatusCompleted: the job ran its application to the end.
	StatusCompleted JobStatus = "completed"
	// StatusKilledWalltime: the engine killed the job at its walltime
	// limit.
	StatusKilledWalltime JobStatus = "killed-walltime"
	// StatusKilledScheduler: a scheduler kill decision terminated the job
	// (running or still pending).
	StatusKilledScheduler JobStatus = "killed-by-scheduler"
	// StatusFailedNode: a node failure killed the job and it was not (or
	// could no longer be) requeued.
	StatusFailedNode JobStatus = "failed-node"
	// StatusRequeued: the job lost a node and is back in the queue; this
	// is a transient status, overwritten by the terminal one when the job
	// eventually finishes.
	StatusRequeued JobStatus = "requeued"
)

// Failed reports whether the status is a terminal non-success.
func (s JobStatus) Failed() bool {
	return s != "" && s != StatusCompleted && s != StatusRequeued
}

// JobRecord is the per-job outcome of a simulation.
type JobRecord struct {
	ID   job.ID   `json:"id"`
	Name string   `json:"name"`
	Type job.Type `json:"type"`
	// User is the submitting account ("" when unattributed).
	User string `json:"user,omitempty"`
	// Submit, Start and End are simulation timestamps in seconds. Start is
	// negative while the job has not started, End while it has not ended.
	Submit float64 `json:"submit"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
	// Killed reports any non-completed termination (walltime, scheduler
	// kill, node failure). Status carries the distinction.
	Killed bool `json:"killed,omitempty"`
	// Status is the job's completion status ("" while unfinished,
	// "requeued" while waiting to restart after a node failure).
	Status JobStatus `json:"status,omitempty"`
	// Requeues counts node-failure resubmissions of this job.
	Requeues int `json:"requeues,omitempty"`
	// BadputNodeSeconds is capacity the job consumed and lost to node
	// failures (work since the last checkpoint at each kill, and the
	// current iteration at each shrink-through-failure).
	BadputNodeSeconds float64 `json:"badput_node_seconds,omitempty"`
	// NodeSeconds integrates the allocation size over the job's runtime.
	NodeSeconds float64 `json:"node_seconds"`
	// Reconfigs counts applied allocation changes.
	Reconfigs int `json:"reconfigs,omitempty"`
	// InitialNodes/FinalNodes/PeakNodes describe the allocation history.
	InitialNodes int `json:"initial_nodes"`
	FinalNodes   int `json:"final_nodes"`
	PeakNodes    int `json:"peak_nodes"`
	// RequestedNodes and WallTime echo the request (for SWF export).
	RequestedNodes int     `json:"requested_nodes"`
	WallTime       float64 `json:"walltime,omitempty"`

	lastChange float64
	curNodes   int
}

// Wait returns the queueing delay.
func (r *JobRecord) Wait() float64 { return r.Start - r.Submit }

// Runtime returns the execution time.
func (r *JobRecord) Runtime() float64 { return r.End - r.Start }

// Turnaround returns submission-to-completion time.
func (r *JobRecord) Turnaround() float64 { return r.End - r.Submit }

// BoundedSlowdown returns the bounded slowdown with the conventional
// 10-second threshold: max(1, turnaround / max(runtime, 10)).
func (r *JobRecord) BoundedSlowdown() float64 {
	const tau = 10.0
	denom := r.Runtime()
	if denom < tau {
		denom = tau
	}
	s := r.Turnaround() / denom
	if s < 1 {
		return 1
	}
	return s
}

// GanttEntry is one allocation segment of a job (between reconfigurations).
type GanttEntry struct {
	Job   job.ID  `json:"job"`
	Name  string  `json:"name"`
	Nodes int     `json:"nodes"`
	Start float64 `json:"start"`
	End   float64 `json:"end"`
}

// Outage is one failure/repair interval of a node. End is negative while
// the outage is still open at the end of the simulation.
type Outage struct {
	Node  int     `json:"node"`
	Start float64 `json:"start"`
	End   float64 `json:"end"`
}

// recordSlab is the most job records one allocation holds.
const recordSlab = 2048

// Recorder accumulates statistics during a simulation run. It is driven by
// the engine's lifecycle callbacks: JobSubmitted returns the job's record,
// and every later callback for that job takes the record back, so the
// caller's own per-job state is the only index.
type Recorder struct {
	totalNodes int
	jobs       int          // expected submissions (Expect); 0 = unknown
	records    []*JobRecord // submission order
	slab       []JobRecord  // carved but not yet handed out
	busy       Timeline     // allocated nodes
	down       Timeline     // failed nodes (availability)
	gantt      []GanttEntry
	reconfigs  int
	finalTime  float64

	// Resilience counters.
	nodeFailures int
	requeues     int
	badput       float64
	outages      []Outage
}

// NewRecorder creates a recorder for a machine of totalNodes nodes.
func NewRecorder(totalNodes int) *Recorder {
	return &Recorder{totalNodes: totalNodes}
}

// Expect tells the recorder how many jobs the run will submit. It
// allocates nothing: the first submission sizes the per-job structures
// from it, so a run pays for them and its setup does not.
func (rec *Recorder) Expect(jobs int) { rec.jobs = jobs }

// JobSubmitted registers a job entering the queue and returns its record,
// the handle every later callback for the job takes. name is the job's
// label (j.Label()), passed in so that the caller formats it once per job.
func (rec *Recorder) JobSubmitted(j *job.Job, name string, t float64) *JobRecord {
	if len(rec.slab) == 0 {
		rec.carve()
	}
	r := &rec.slab[0]
	rec.slab = rec.slab[1:]
	*r = JobRecord{
		ID: j.ID, Name: name, Type: j.Type, User: j.User,
		Submit: t, Start: -1, End: -1,
		RequestedNodes: j.MinNodes(), WallTime: j.WallTimeLimit,
	}
	rec.records = append(rec.records, r)
	return r
}

// carve makes the next slab of job records: up to recordSlab of the
// submissions still expected, or a single record once more jobs arrive
// than expected. On the first submission it also sizes the records slice,
// the Gantt and the busy timeline for the expected jobs: a job has one
// record, one segment per allocation (one unless it is reconfigured) and
// a busy change point at its start and at its end.
func (rec *Recorder) carve() {
	left := rec.jobs - len(rec.records)
	if rec.records == nil && left > 0 {
		rec.records = make([]*JobRecord, 0, left)
		rec.gantt = make([]GanttEntry, 0, left)
		rec.busy.grow(2 * left)
	}
	rec.slab = make([]JobRecord, min(max(left, 1), recordSlab))
}

// JobStarted registers a job beginning execution on nodes. A restart
// after a node-failure requeue keeps the original Start and InitialNodes
// (Wait measures the initial queueing delay).
func (rec *Recorder) JobStarted(r *JobRecord, t float64, nodes int) {
	if r.Start < 0 {
		r.Start = t
		r.InitialNodes = nodes
	}
	if nodes > r.PeakNodes {
		r.PeakNodes = nodes
	}
	r.curNodes = nodes
	r.lastChange = t
	rec.busy.Add(t, float64(nodes))
}

// JobReconfigured registers an applied allocation change.
func (rec *Recorder) JobReconfigured(r *JobRecord, t float64, newNodes int) {
	r.NodeSeconds += float64(r.curNodes) * (t - r.lastChange)
	rec.busy.Add(t, float64(newNodes-r.curNodes))
	r.curNodes = newNodes
	r.lastChange = t
	r.Reconfigs++
	rec.reconfigs++
	if newNodes > r.PeakNodes {
		r.PeakNodes = newNodes
	}
}

// JobFinished registers a terminal outcome with the given status.
func (rec *Recorder) JobFinished(r *JobRecord, t float64, status JobStatus) {
	r.NodeSeconds += float64(r.curNodes) * (t - r.lastChange)
	rec.busy.Add(t, -float64(r.curNodes))
	r.End = t
	r.Status = status
	r.Killed = status != StatusCompleted
	r.FinalNodes = r.curNodes
	r.curNodes = 0
	if t > rec.finalTime {
		rec.finalTime = t
	}
}

// JobFailed registers a running job being torn off its nodes by a node
// failure. lost is the badput (node-seconds of work that must be redone,
// i.e. consumed since the last checkpoint). The job is NOT terminal yet:
// follow with JobRequeued (resubmission) or JobFinished with
// StatusFailedNode (dropped).
func (rec *Recorder) JobFailed(r *JobRecord, t float64, lost float64) {
	r.NodeSeconds += float64(r.curNodes) * (t - r.lastChange)
	rec.busy.Add(t, -float64(r.curNodes))
	r.curNodes = 0
	r.lastChange = t
	if lost > 0 {
		r.BadputNodeSeconds += lost
		rec.badput += lost
	}
}

// JobLostWork charges badput without touching the allocation (a shrink
// through a failure redoes the interrupted iteration in place).
func (rec *Recorder) JobLostWork(r *JobRecord, lost float64) {
	if lost <= 0 {
		return
	}
	r.BadputNodeSeconds += lost
	rec.badput += lost
}

// JobRequeued registers a failed job re-entering the queue.
func (rec *Recorder) JobRequeued(r *JobRecord) {
	r.Requeues++
	r.Status = StatusRequeued
	rec.requeues++
}

// NodeDown registers a node failure (availability timeline, counter, and
// the node's outage interval).
func (rec *Recorder) NodeDown(node int, t float64) {
	rec.nodeFailures++
	rec.down.Add(t, 1)
	rec.outages = append(rec.outages, Outage{Node: node, Start: t, End: -1})
}

// NodeUp registers a node repair, closing the node's open outage.
func (rec *Recorder) NodeUp(node int, t float64) {
	rec.down.Add(t, -1)
	for i := len(rec.outages) - 1; i >= 0; i-- {
		if rec.outages[i].Node == node && rec.outages[i].End < 0 {
			rec.outages[i].End = t
			return
		}
	}
}

// JobAbandoned registers a job killed while still pending: never started,
// or requeued after a node failure and so holding no nodes.
func (rec *Recorder) JobAbandoned(r *JobRecord, t float64) {
	if r.curNodes != 0 {
		panic(fmt.Sprintf("metrics: job %d abandoned while holding %d nodes", r.ID, r.curNodes))
	}
	r.End = t
	r.Killed = true
	r.Status = StatusKilledScheduler
	if t > rec.finalTime {
		rec.finalTime = t
	}
}

// AddGantt records one allocation segment for trace export.
func (rec *Recorder) AddGantt(id job.ID, name string, nodes int, start, end float64) {
	rec.gantt = append(rec.gantt, GanttEntry{Job: id, Name: name, Nodes: nodes, Start: start, End: end})
}

// Records returns all job records in submission order.
func (rec *Recorder) Records() []*JobRecord { return slices.Clone(rec.records) }

// BusyTimeline returns the allocated-nodes step function.
func (rec *Recorder) BusyTimeline() *Timeline { return &rec.busy }

// Gantt returns the recorded allocation segments.
func (rec *Recorder) Gantt() []GanttEntry { return rec.gantt }

// Outages returns the recorded node failure intervals, in failure order.
func (rec *Recorder) Outages() []Outage { return rec.outages }

// TotalNodes returns the machine size.
func (rec *Recorder) TotalNodes() int { return rec.totalNodes }

// Summary aggregates the run.
type Summary struct {
	// Jobs is the number of submitted jobs; Completed/Killed partition the
	// finished ones.
	Jobs      int `json:"jobs"`
	Completed int `json:"completed"`
	Killed    int `json:"killed"`
	// Makespan is the completion time of the last job.
	Makespan float64 `json:"makespan"`
	// Utilization is busy node-seconds over totalNodes * makespan.
	Utilization float64 `json:"utilization"`
	// MeanWait/P95Wait describe queueing delay (finished jobs only).
	MeanWait float64 `json:"mean_wait"`
	P95Wait  float64 `json:"p95_wait"`
	// MeanTurnaround is submission-to-completion.
	MeanTurnaround float64 `json:"mean_turnaround"`
	// MeanSlowdown and MaxSlowdown are bounded slowdowns.
	MeanSlowdown float64 `json:"mean_slowdown"`
	MaxSlowdown  float64 `json:"max_slowdown"`
	// Reconfigs counts malleable/evolving allocation changes.
	Reconfigs int `json:"reconfigs"`
	// NodeSeconds is total busy capacity.
	NodeSeconds float64 `json:"node_seconds"`

	// Resilience aggregates (all zero without a failure model).
	// KilledWalltime/KilledByScheduler/FailedNode break Killed down by
	// status.
	KilledWalltime    int `json:"killed_walltime,omitempty"`
	KilledByScheduler int `json:"killed_by_scheduler,omitempty"`
	FailedNode        int `json:"failed_node,omitempty"`
	// NodeFailures counts node-down events; Requeues counts job
	// resubmissions after failures.
	NodeFailures int `json:"node_failures,omitempty"`
	Requeues     int `json:"requeues,omitempty"`
	// DownNodeSeconds integrates lost capacity (down nodes × time);
	// Availability is 1 − DownNodeSeconds/(totalNodes × makespan).
	DownNodeSeconds float64 `json:"down_node_seconds,omitempty"`
	Availability    float64 `json:"availability"`
	// BadputNodeSeconds is consumed-then-lost capacity (work redone after
	// failures); GoodputNodeSeconds = NodeSeconds − BadputNodeSeconds.
	BadputNodeSeconds  float64 `json:"badput_node_seconds,omitempty"`
	GoodputNodeSeconds float64 `json:"goodput_node_seconds,omitempty"`
}

// Summary computes aggregates over finished jobs.
func (rec *Recorder) Summary() Summary {
	s := Summary{Jobs: len(rec.records), Reconfigs: rec.reconfigs, Makespan: rec.finalTime}
	waits := make([]float64, 0, len(rec.records))
	slowdowns := make([]float64, 0, len(rec.records))
	var turnSum float64
	for _, r := range rec.records {
		if r.End < 0 {
			continue
		}
		if r.Killed {
			s.Killed++
		} else {
			s.Completed++
		}
		switch r.Status {
		case StatusKilledWalltime:
			s.KilledWalltime++
		case StatusKilledScheduler:
			s.KilledByScheduler++
		case StatusFailedNode:
			s.FailedNode++
		}
		if r.Start < 0 {
			continue // abandoned before starting: no wait/slowdown stats
		}
		waits = append(waits, r.Wait())
		slowdowns = append(slowdowns, r.BoundedSlowdown())
		turnSum += r.Turnaround()
		s.NodeSeconds += r.NodeSeconds
	}
	n := len(waits)
	if n > 0 {
		s.MeanWait = mean(waits)
		s.P95Wait = percentile(waits, 0.95)
		s.MeanTurnaround = turnSum / float64(n)
		s.MeanSlowdown = mean(slowdowns)
		s.MaxSlowdown = maxOf(slowdowns)
	}
	s.NodeFailures = rec.nodeFailures
	s.Requeues = rec.requeues
	s.BadputNodeSeconds = rec.badput
	s.GoodputNodeSeconds = s.NodeSeconds - s.BadputNodeSeconds
	s.Availability = 1
	if rec.finalTime > 0 && rec.totalNodes > 0 {
		s.Utilization = rec.busy.Integral(0, rec.finalTime) / (float64(rec.totalNodes) * rec.finalTime)
		s.DownNodeSeconds = rec.down.Integral(0, rec.finalTime)
		s.Availability = 1 - s.DownNodeSeconds/(float64(rec.totalNodes)*rec.finalTime)
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// percentile returns the p-quantile (0..1) using nearest-rank on a sorted
// copy.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	idx := int(p*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// WriteJobsCSV emits one row per finished job.
func (rec *Recorder) WriteJobsCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "id,name,type,submit,start,end,wait,runtime,turnaround,slowdown,nodes_initial,nodes_final,nodes_peak,reconfigs,node_seconds,killed,status,requeues,badput_node_seconds"); err != nil {
		return err
	}
	for _, r := range rec.records {
		if r.End < 0 {
			continue
		}
		status := r.Status
		if status == "" {
			status = StatusCompleted
		}
		if _, err := fmt.Fprintf(w, "%d,%s,%s,%g,%g,%g,%g,%g,%g,%g,%d,%d,%d,%d,%g,%t,%s,%d,%g\n",
			r.ID, r.Name, r.Type, r.Submit, r.Start, r.End,
			r.Wait(), r.Runtime(), r.Turnaround(), r.BoundedSlowdown(),
			r.InitialNodes, r.FinalNodes, r.PeakNodes, r.Reconfigs, r.NodeSeconds, r.Killed,
			status, r.Requeues, r.BadputNodeSeconds); err != nil {
			return err
		}
	}
	return nil
}

// WriteGanttJSON emits the allocation segments as JSON.
func (rec *Recorder) WriteGanttJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rec.gantt)
}

// WriteSWF exports finished jobs in the Standard Workload Format, the
// interchange format other batch simulators and the Parallel Workloads
// Archive consume. Node counts are scaled by coresPerNode into processor
// counts; killed jobs carry status 0 (failed), completed ones status 1.
// Adaptive jobs report their initial allocation as used processors (SWF
// has no notion of reconfiguration).
func (rec *Recorder) WriteSWF(w io.Writer, coresPerNode int) error {
	if coresPerNode <= 0 {
		coresPerNode = 1
	}
	if _, err := fmt.Fprintln(w, "; generated by elastisim-go"); err != nil {
		return err
	}
	for _, r := range rec.records {
		if r.End < 0 || r.Start < 0 {
			continue
		}
		status := 1
		if r.Killed {
			status = 0
		}
		reqTime := -1.0
		if r.WallTime > 0 {
			reqTime = r.WallTime
		}
		// Fields: id submit wait run usedProcs avgCPU usedMem reqProcs
		// reqTime reqMem status user group app queue partition preceding
		// think.
		if _, err := fmt.Fprintf(w, "%d %.0f %.0f %.0f %d -1 -1 %d %.0f -1 %d -1 -1 -1 -1 -1 -1 -1\n",
			int(r.ID)+1, r.Submit, r.Wait(), r.Runtime(),
			r.InitialNodes*coresPerNode, r.RequestedNodes*coresPerNode,
			reqTime, status); err != nil {
			return err
		}
	}
	return nil
}
