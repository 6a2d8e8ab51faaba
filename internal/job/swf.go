package job

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// SWFOptions configures conversion of a Standard Workload Format trace
// (Feitelson's SWF, the de-facto interchange format for batch traces) into
// a simulator workload.
type SWFOptions struct {
	// CoresPerNode converts the trace's processor counts into node counts
	// (ceil division). Default 1.
	CoresPerNode int
	// NodeSpeed (flops/s) calibrates compute volume so that a job's
	// simulated runtime on its requested nodes matches the recorded
	// runtime. Required.
	NodeSpeed float64
	// MaxJobs truncates the trace (0 = no limit).
	MaxJobs int
	// MaxNodes drops jobs larger than the machine (0 = keep all).
	MaxNodes int
	// MalleableFraction converts every k-th job (per the fraction) into a
	// malleable job with range [n/2, 2n], modelling the what-if scenarios
	// the malleability literature studies on rigid traces.
	MalleableFraction float64
	// Iterations splits each converted job's work into this many
	// iterations with scheduling points (default 10); only meaningful for
	// jobs converted to malleable.
	Iterations int
}

// SWF field indices (0-based) per the format definition.
const (
	swfJobID = iota
	swfSubmitTime
	swfWaitTime
	swfRunTime
	swfUsedProcs
	swfUsedCPUTime
	swfUsedMemory
	swfReqProcs
	swfReqTime
	swfReqMemory
	swfStatus
	swfUserID
	swfGroupID
	swfAppID
	swfQueueID
	swfPartitionID
	swfPrecedingJob
	swfThinkTime
	swfFieldCount
)

// ParseSWF reads an SWF trace and converts each record into a job whose
// compute volume reproduces the recorded runtime at the requested node
// count. Comment lines (';') carry header metadata and are skipped.
func ParseSWF(r io.Reader, opts SWFOptions) (*Workload, error) {
	if opts.NodeSpeed <= 0 {
		return nil, fmt.Errorf("job: SWF conversion requires a node speed")
	}
	if opts.CoresPerNode <= 0 {
		opts.CoresPerNode = 1
	}
	if opts.Iterations <= 0 {
		opts.Iterations = 10
	}
	w := &Workload{Name: "swf"}
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	kept := 0
	malleableAcc := 0.0
	swfIDToJob := map[int]ID{} // trace job id -> our dense ID (pre-sort)
	for scanner.Scan() {
		lineNo++
		line := strings.TrimSpace(scanner.Text())
		if line == "" || strings.HasPrefix(line, ";") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < swfFieldCount {
			return nil, fmt.Errorf("job: SWF line %d has %d fields, want %d", lineNo, len(fields), swfFieldCount)
		}
		get := func(i int) (float64, error) {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return 0, fmt.Errorf("job: SWF line %d field %d: %w", lineNo, i, err)
			}
			return v, nil
		}
		// finite reads a field the conversion computes with. ParseFloat
		// accepts "NaN" and "Inf", and a NaN compares false with everything,
		// so it would slip past the cleaning checks below and become NaN
		// flops. (A non-finite submit time is refused by Workload.Validate,
		// which names the job.)
		finite := func(i int, name string) (float64, error) {
			v, err := get(i)
			if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
				err = fmt.Errorf("job: SWF line %d field %d (%s): non-finite value %s", lineNo, i, name, fields[i])
			}
			return v, err
		}
		submit, err := get(swfSubmitTime)
		if err != nil {
			return nil, err
		}
		runTime, err := finite(swfRunTime, "run time")
		if err != nil {
			return nil, err
		}
		procs, err := finite(swfUsedProcs, "used procs")
		if err != nil {
			return nil, err
		}
		if procs <= 0 {
			if procs, err = finite(swfReqProcs, "requested procs"); err != nil {
				return nil, err
			}
		}
		reqTime, err := finite(swfReqTime, "requested time")
		if err != nil {
			return nil, err
		}
		status, err := finite(swfStatus, "status")
		if err != nil {
			return nil, err
		}
		// Keep only completed jobs with usable size and runtime; this is
		// the standard cleaning step for SWF-driven simulation.
		if runTime <= 0 || procs <= 0 || status == 0 || status == 5 {
			continue
		}
		nodes := int((procs + float64(opts.CoresPerNode) - 1) / float64(opts.CoresPerNode))
		if opts.MaxNodes > 0 && nodes > opts.MaxNodes {
			continue
		}
		if submit < 0 {
			submit = 0
		}
		walltime := reqTime
		if walltime <= 0 {
			walltime = runTime * 2
		}
		j := convertSWFJob(kept, submit, runTime, walltime, nodes, opts, &malleableAcc)
		// Preserve the trace's "preceding job" chains as dependencies
		// (afterany semantics); think times are not modelled.
		if swfID, err := get(swfJobID); err == nil {
			swfIDToJob[int(swfID)] = j.ID
		}
		if prec, err := get(swfPrecedingJob); err == nil && prec > 0 {
			if depID, ok := swfIDToJob[int(prec)]; ok && depID != j.ID {
				j.Dependencies = append(j.Dependencies, depID)
			}
		}
		w.Jobs = append(w.Jobs, j)
		kept++
		if opts.MaxJobs > 0 && kept >= opts.MaxJobs {
			break
		}
	}
	if err := scanner.Err(); err != nil {
		return nil, fmt.Errorf("job: reading SWF: %w", err)
	}
	w.Sort()
	return w, nil
}

func convertSWFJob(idx int, submit, runTime, walltime float64, nodes int, opts SWFOptions, malleableAcc *float64) *Job {
	j := &Job{
		ID:            ID(idx),
		Name:          fmt.Sprintf("swf%d", idx),
		Type:          Rigid,
		SubmitTime:    submit,
		NumNodes:      nodes,
		WallTimeLimit: walltime,
		Args: map[string]float64{
			// Total flops reproducing runTime at the recorded allocation
			// under perfect scaling.
			"flops": runTime * opts.NodeSpeed * float64(nodes),
		},
	}
	// Deterministic fractional rounding: every 1/f-th job is malleable.
	*malleableAcc += opts.MalleableFraction
	if *malleableAcc >= 1 {
		*malleableAcc--
		j.Type = Malleable
		j.NumNodesMin = max(1, nodes/2)
		j.NumNodesMax = min(nodes*2, maxNodesOr(opts.MaxNodes, nodes*2))
		j.App = &Application{Phases: []Phase{{
			Name:            "main",
			Iterations:      opts.Iterations,
			SchedulingPoint: true,
			Tasks: []Task{{
				Kind:  TaskCompute,
				Model: MustExprModel(fmt.Sprintf("flops / %d / num_nodes", opts.Iterations)),
			}},
		}}}
		return j
	}
	j.App = &Application{Phases: []Phase{{
		Name: "main",
		Tasks: []Task{{
			Kind:  TaskCompute,
			Model: MustExprModel("flops / num_nodes"),
		}},
	}}}
	return j
}

func maxNodesOr(limit, v int) int {
	if limit <= 0 {
		return v
	}
	return limit
}
