package job

import (
	"fmt"

	"repro/internal/expr"
)

// PlatformRef carries the platform magnitudes the analytic estimator
// needs. It deliberately mirrors the simple homogeneous platform: per-node
// speed and injection bandwidth, aggregate PFS bandwidths, and per-node
// burst-buffer bandwidths.
type PlatformRef struct {
	// NodeSpeed is flops/s per node.
	NodeSpeed float64
	// LinkBW is bytes/s injection bandwidth per node.
	LinkBW float64
	// PFSReadBW and PFSWriteBW are aggregate bytes/s.
	PFSReadBW  float64
	PFSWriteBW float64
	// BBReadBW and BBWriteBW are per-node bytes/s (node-local model).
	BBReadBW  float64
	BBWriteBW float64
}

// CommWeights returns the per-link consumption factors for a pattern on n
// nodes: the weight of non-root links, the root's weight, and the shared
// backbone weight (bytes through the resource per payload byte). The
// simulation engine and the analytic estimator share these definitions.
func CommWeights(p CommPattern, n int) (linkW, rootW, backboneW float64) {
	nf := float64(n)
	switch p {
	case PatternAllToAll:
		w := nf - 1
		return w, w, nf * nf / 4
	case PatternAllReduce:
		w := 2 * (nf - 1) / nf
		return w, w, 2
	case PatternRing:
		return 1, 1, 1
	case PatternBroadcast:
		w := ceilLog2(n)
		return 1, w, w
	case PatternGather:
		return 1, nf - 1, nf / 2
	default:
		return 1, 1, 1
	}
}

// UplinkWeights returns, for a tree topology, the bytes each leaf-switch
// uplink carries per payload byte of the collective, given how many of
// the job's n nodes sit in each group (groupCounts, keyed by group
// index), plus the bytes crossing the shared core. A job contained in a
// single group returns nil (no uplink traffic).
func UplinkWeights(p CommPattern, n int, groupCounts map[int]int) (perGroup map[int]float64, core float64) {
	if len(groupCounts) <= 1 {
		return nil, 0
	}
	perGroup = make(map[int]float64, len(groupCounts))
	nf := float64(n)
	// Identify the root's group deterministically: the lowest group index
	// (the engine allocates lowest node IDs first and treats the first
	// node as the collective root).
	rootGroup := -1
	for g := range groupCounts {
		if rootGroup < 0 || g < rootGroup {
			rootGroup = g
		}
	}
	switch p {
	case PatternAllToAll:
		for g, k := range groupCounts {
			perGroup[g] = float64(k) * (nf - float64(k))
		}
	case PatternAllReduce:
		// Ring ordered by node ID: each direction crosses every group
		// boundary once; two transfers per ring step.
		for g := range groupCounts {
			perGroup[g] = 2
		}
	case PatternRing:
		for g := range groupCounts {
			perGroup[g] = 1
		}
	case PatternBroadcast:
		// The payload enters every non-root group once; the root group
		// sends it out once per other group (tree fan-out collapsed onto
		// its uplink).
		for g := range groupCounts {
			if g == rootGroup {
				perGroup[g] = float64(len(groupCounts) - 1)
			} else {
				perGroup[g] = 1
			}
		}
	case PatternGather:
		for g, k := range groupCounts {
			if g == rootGroup {
				perGroup[g] = nf - float64(groupCounts[rootGroup])
			} else {
				perGroup[g] = float64(k)
			}
		}
	default:
		for g := range groupCounts {
			perGroup[g] = 1
		}
	}
	total := 0.0
	for _, w := range perGroup {
		total += w
	}
	// Every cross-group byte traverses two uplinks (out and in) and the
	// core once.
	return perGroup, total / 2
}

func ceilLog2(n int) float64 {
	k := 0
	v := 1
	for v < n {
		v *= 2
		k++
	}
	return float64(k)
}

// EstimateRuntime computes the job's contention-free runtime on n nodes by
// walking the application model analytically (the same closed forms the
// fluid simulation realizes when the job runs alone). It assumes the
// allocation stays at n for the whole run — reconfigurations, evolving
// requests, and cross-job contention are not modelled, which makes the
// estimate a lower bound in loaded systems.
func EstimateRuntime(j *Job, n int, ref PlatformRef) (float64, error) {
	if n < 1 {
		return 0, fmt.Errorf("job: estimate with %d nodes", n)
	}
	if ref.NodeSpeed <= 0 {
		return 0, fmt.Errorf("job: estimate needs a node speed")
	}
	total := 0.0
	base := expr.Vars{
		"num_nodes":   float64(n),
		"total_nodes": float64(n),
		"walltime":    j.WallTimeLimit,
	}
	args := expr.Vars{}
	for k, v := range j.Args {
		args[k] = v
	}
	env := expr.ChainEnv{args, base}
	for pi := range j.App.Phases {
		p := &j.App.Phases[pi]
		iters := p.EffectiveIterations()
		base["phase"] = float64(pi)
		base["iterations"] = float64(iters)
		for it := 0; it < iters; it++ {
			base["iteration"] = float64(it)
			for ti := range p.Tasks {
				d, err := estimateTask(&p.Tasks[ti], n, ref, env)
				if err != nil {
					return 0, fmt.Errorf("job %s phase %d task %d: %w", j.Label(), pi, ti, err)
				}
				total += d
			}
		}
	}
	return total, nil
}

func estimateTask(t *Task, n int, ref PlatformRef, env expr.Env) (float64, error) {
	magnitude, err := t.Model.Eval(env, n)
	if err != nil {
		return 0, err
	}
	if magnitude <= 0 {
		return 0, nil
	}
	switch t.Kind {
	case TaskCompute:
		return magnitude / ref.NodeSpeed, nil
	case TaskDelay:
		return magnitude, nil
	case TaskComm:
		if n <= 1 || ref.LinkBW <= 0 {
			return 0, nil
		}
		linkW, rootW, _ := CommWeights(t.Pattern, n)
		w := linkW
		if rootW > w {
			w = rootW
		}
		return magnitude * w / ref.LinkBW, nil
	case TaskRead, TaskWrite:
		return estimateIO(t, n, ref, magnitude)
	case TaskEvolvingRequest:
		return 0, nil
	default:
		return 0, fmt.Errorf("unknown task kind %q", t.Kind)
	}
}

func estimateIO(t *Task, n int, ref PlatformRef, bytes float64) (float64, error) {
	switch t.Target {
	case TargetPFS:
		var pfs float64
		if t.Kind == TaskRead {
			pfs = ref.PFSReadBW
		} else {
			pfs = ref.PFSWriteBW
		}
		if pfs <= 0 {
			return 0, fmt.Errorf("PFS task but no PFS bandwidth in reference")
		}
		bw := pfs
		if ref.LinkBW > 0 {
			bw = min(pfs, float64(n)*ref.LinkBW)
		}
		return bytes / bw, nil
	case TargetBB:
		var per float64
		if t.Kind == TaskRead {
			per = ref.BBReadBW
		} else {
			per = ref.BBWriteBW
		}
		if per <= 0 {
			return 0, fmt.Errorf("burst-buffer task but no BB bandwidth in reference")
		}
		return bytes / (float64(n) * per), nil
	default:
		return 0, fmt.Errorf("unknown I/O target %q", t.Target)
	}
}

// Efficiency returns the parallel efficiency of running j on n nodes
// relative to its minimum size: T(min)*min / (T(n)*n). A perfectly
// scaling job has efficiency 1 at every size.
func Efficiency(j *Job, n int, ref PlatformRef) (float64, error) {
	minN := j.MinNodes()
	tMin, err := EstimateRuntime(j, minN, ref)
	if err != nil {
		return 0, err
	}
	tN, err := EstimateRuntime(j, n, ref)
	if err != nil {
		return 0, err
	}
	if tN <= 0 || n <= 0 {
		return 1, nil
	}
	return tMin * float64(minN) / (tN * float64(n)), nil
}
