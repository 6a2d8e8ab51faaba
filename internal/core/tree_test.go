package core

import (
	"testing"

	"repro/internal/job"
	"repro/internal/platform"
	"repro/internal/sched"
)

// treePlatform: 4 nodes in groups of 2, 1 GB/s links, configurable uplink.
func treePlatform(nodes, groupSize int, uplinkBW, coreBW float64) *platform.Spec {
	s := platform.Homogeneous("tree", nodes, speed, linkBW, pfsBW, pfsBW)
	s.Network.Topology = platform.TopologyTree
	s.Network.GroupSize = groupSize
	s.Network.UplinkBandwidth = platform.Quantity(uplinkBW)
	s.Network.BackboneBandwidth = platform.Quantity(coreBW)
	return s
}

func commJob(id, nodes int, pattern job.CommPattern, bytes string) *job.Job {
	return &job.Job{
		ID: job.ID(id), Type: job.Rigid, NumNodes: nodes,
		App: &job.Application{Phases: []job.Phase{{
			Tasks: []job.Task{{Kind: job.TaskComm, Model: job.MustExprModel(bytes), Pattern: pattern}},
		}}},
	}
}

func TestTreeUplinkBoundsAllToAll(t *testing.T) {
	// 4 nodes over 2 groups, 1 GB/s uplinks. Alltoall of 1 GB spanning
	// both groups: links carry 3 GB (3 s), each uplink carries
	// k*(n-k) = 4 GB (4 s) -> uplink-bound at 4 s.
	spec := treePlatform(4, 2, 1e9, 0)
	rec, _ := runSim(t, spec, []*job.Job{commJob(0, 4, job.PatternAllToAll, "1G")}, &sched.FCFS{}, Options{})
	wantClose(t, "tree alltoall", record(rec, 0).Runtime(), 4)
}

func TestTreeLocalityMatters(t *testing.T) {
	// A 2-node alltoall inside one group never touches the uplink (1 s);
	// the same job split across groups is bound by the 0.5 GB/s uplinks
	// (k*(n-k) = 1 -> 1 GB per uplink -> 2 s).
	spec := treePlatform(4, 2, 0.5e9, 0)
	// Local: the allocator packs the first job into nodes {0,1}.
	recLocal, _ := runSim(t, spec, []*job.Job{commJob(0, 2, job.PatternAllToAll, "1G")}, &sched.FCFS{}, Options{})
	wantClose(t, "intra-group alltoall", record(recLocal, 0).Runtime(), 1)

	// Spanning: a 1-node filler first claims node 0, pushing the comm job
	// onto nodes {1,2} — one in each group.
	filler := &job.Job{
		ID: 0, Type: job.Rigid, NumNodes: 1,
		App: &job.Application{Phases: []job.Phase{{
			Tasks: []job.Task{{Kind: job.TaskDelay, Model: job.MustExprModel("100")}},
		}}},
	}
	span := commJob(1, 2, job.PatternAllToAll, "1G")
	recSpan, _ := runSim(t, spec, []*job.Job{filler, span}, &sched.FCFS{}, Options{})
	wantClose(t, "cross-group alltoall", record(recSpan, 1).Runtime(), 2)
}

func TestTreeCoreBoundsTraffic(t *testing.T) {
	// Capacity-limited core: alltoall on 4 nodes crosses the core with
	// weight k*(n-k) summed / 2 = 4. Core at 0.5 GB/s -> 4 GB / 0.5 = 8 s,
	// dominating links (3 s) and uplinks (4 s at 1 GB/s).
	spec := treePlatform(4, 2, 1e9, 0.5e9)
	rec, _ := runSim(t, spec, []*job.Job{commJob(0, 4, job.PatternAllToAll, "1G")}, &sched.FCFS{}, Options{})
	wantClose(t, "core-bound alltoall", record(rec, 0).Runtime(), 8)
}

func TestTreeUplinkContentionOnPFS(t *testing.T) {
	// Two 2-node jobs in separate groups each read 4 GB. The PFS
	// (2 GB/s) is the shared bottleneck: 1 GB/s each -> 4 s. Each group's
	// uplink carries only its own job (k/n = 1), no extra slowdown.
	spec := treePlatform(4, 2, 2e9, 0)
	mk := func(id int) *job.Job {
		return &job.Job{
			ID: job.ID(id), Type: job.Rigid, NumNodes: 2,
			App: &job.Application{Phases: []job.Phase{{
				Tasks: []job.Task{{Kind: job.TaskRead, Model: job.MustExprModel("4G"), Target: job.TargetPFS}},
			}}},
		}
	}
	rec, _ := runSim(t, spec, []*job.Job{mk(0), mk(1)}, &sched.FCFS{}, Options{})
	wantClose(t, "pfs-shared read 0", record(rec, 0).Runtime(), 4)
	wantClose(t, "pfs-shared read 1", record(rec, 1).Runtime(), 4)

	// Slow uplinks (0.5 GB/s) become the bottleneck instead: 8 s each.
	spec2 := treePlatform(4, 2, 0.5e9, 0)
	rec2, _ := runSim(t, spec2, []*job.Job{mk(0), mk(1)}, &sched.FCFS{}, Options{})
	wantClose(t, "uplink-bound read", record(rec2, 0).Runtime(), 8)
}

func TestTreeIntraGroupJobUnaffectedByUplink(t *testing.T) {
	// Allreduce contained in one group ignores even a tiny uplink.
	spec := treePlatform(4, 2, 0.01e9, 0)
	rec, _ := runSim(t, spec, []*job.Job{commJob(0, 2, job.PatternAllReduce, "1G")}, &sched.FCFS{}, Options{})
	// 2*(2-1)/2 = 1 GB per link at 1 GB/s.
	wantClose(t, "intra-group allreduce", record(rec, 0).Runtime(), 1)
}

func TestUplinkWeights(t *testing.T) {
	counts := map[int]int{0: 2, 1: 2}
	per, core := job.UplinkWeights(job.PatternAllToAll, 4, counts)
	if per[0] != 4 || per[1] != 4 {
		t.Errorf("alltoall uplink weights %v", per)
	}
	if core != 4 {
		t.Errorf("alltoall core weight %v", core)
	}
	per, core = job.UplinkWeights(job.PatternGather, 4, map[int]int{0: 1, 1: 3})
	// Root sits in group 0: its uplink receives n - k_root = 3; group 1
	// sends its 3 members' payloads.
	if per[0] != 3 || per[1] != 3 {
		t.Errorf("gather uplink weights %v", per)
	}
	if core != 3 {
		t.Errorf("gather core weight %v", core)
	}
	// Single group: no uplink traffic.
	if per, core := job.UplinkWeights(job.PatternAllToAll, 4, map[int]int{2: 4}); per != nil || core != 0 {
		t.Errorf("single-group weights %v %v", per, core)
	}
	// Broadcast: root group fans out once per other group.
	per, _ = job.UplinkWeights(job.PatternBroadcast, 6, map[int]int{0: 2, 1: 2, 2: 2})
	if per[0] != 2 || per[1] != 1 || per[2] != 1 {
		t.Errorf("bcast uplink weights %v", per)
	}
}

func TestPinnedPlacement(t *testing.T) {
	// An algorithm that pins a job to specific nodes: the engine must
	// honor the exact set.
	pinner := algoFunc(func(inv *sched.Invocation) []sched.Decision {
		var out []sched.Decision
		for _, v := range inv.Pending {
			out = append(out, sched.Decision{
				Kind: sched.DecisionStart, Job: v.ID,
				NumNodes: 2, Nodes: []int{1, 3},
			})
		}
		return out
	})
	j := commJob(0, 2, job.PatternAllToAll, "1G")
	spec := treePlatform(4, 2, 0.5e9, 0)
	rec, e := runSim(t, spec, []*job.Job{j}, pinner, Options{})
	if len(e.Warnings()) != 0 {
		t.Fatalf("warnings: %v", e.Warnings())
	}
	// Nodes 1 and 3 span both groups: the 0.5 GB/s uplinks bound the
	// alltoall at 2 s (vs 1 s packed).
	wantClose(t, "pinned cross-group alltoall", record(rec, 0).Runtime(), 2)
}

func TestPinnedPlacementValidation(t *testing.T) {
	cases := []struct {
		name  string
		nodes []int
	}{
		{"out of range", []int{0, 99}},
		{"duplicate", []int{1, 1}},
		{"wrong count", []int{1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := algoFunc(func(inv *sched.Invocation) []sched.Decision {
				var out []sched.Decision
				for _, v := range inv.Pending {
					// First a bad pinned start, then a good fallback so the
					// simulation completes.
					out = append(out, sched.Decision{
						Kind: sched.DecisionStart, Job: v.ID,
						NumNodes: 2, Nodes: tc.nodes,
					})
					out = append(out, sched.Start(v.ID, 2))
				}
				return out
			})
			j := computeJob(0, 2, 1e9)
			_, e := runSim(t, testPlatform(4), []*job.Job{j}, bad, Options{})
			if len(e.Warnings()) == 0 {
				t.Error("invalid pinned placement accepted")
			}
		})
	}
}

func TestPackedAlgorithmReducesSpanning(t *testing.T) {
	// Fragmented free list: a 1-node filler sits in group 0. The default
	// (lowest-first) placement puts a 2-node alltoall job on nodes {1,2}
	// across groups (2 s on 0.5 GB/s uplinks); the packed wrapper puts it
	// on {2,3} inside group 1 (1 s).
	spec := treePlatform(4, 2, 0.5e9, 0)
	mkJobs := func() []*job.Job {
		filler := &job.Job{
			ID: 0, Type: job.Rigid, NumNodes: 1,
			App: &job.Application{Phases: []job.Phase{{
				Tasks: []job.Task{{Kind: job.TaskDelay, Model: job.MustExprModel("100")}},
			}}},
		}
		return []*job.Job{filler, commJob(1, 2, job.PatternAllToAll, "1G")}
	}
	recDefault, _ := runSim(t, spec, mkJobs(), &sched.EASY{}, Options{})
	wantClose(t, "default placement", record(recDefault, 1).Runtime(), 2)
	recPacked, _ := runSim(t, spec, mkJobs(), &sched.Packed{}, Options{})
	wantClose(t, "packed placement", record(recPacked, 1).Runtime(), 1)
}
