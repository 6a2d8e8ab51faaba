package platform

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/des"
	"repro/internal/fluid"
)

func testSpecJSON() string {
	return `{
		"name": "testcluster",
		"nodes": [
			{"count": 4, "speed": "100G"},
			{"count": 2, "speed": "200G", "name_prefix": "fat"}
		],
		"network": {
			"topology": "backbone",
			"link_bandwidth": "10G",
			"backbone_bandwidth": "25G",
			"latency": 1e-6
		},
		"pfs": {"read_bandwidth": "80G", "write_bandwidth": "40G"},
		"burst_buffer": {"kind": "node_local", "read_bandwidth": "2G", "write_bandwidth": "1G"}
	}`
}

func TestParseSpec(t *testing.T) {
	s, err := ParseSpec([]byte(testSpecJSON()))
	if err != nil {
		t.Fatal(err)
	}
	if s.TotalNodes() != 6 {
		t.Errorf("TotalNodes = %d, want 6", s.TotalNodes())
	}
	if float64(s.Nodes[0].Speed) != 100e9 {
		t.Errorf("speed = %v, want 1e11", float64(s.Nodes[0].Speed))
	}
	if float64(s.Network.BackboneBandwidth) != 25e9 {
		t.Errorf("backbone = %v", float64(s.Network.BackboneBandwidth))
	}
	if float64(s.Network.Latency) != 1e-6 {
		t.Errorf("latency = %v", float64(s.Network.Latency))
	}
	if s.BurstBuffer.Kind != BBNodeLocal {
		t.Errorf("bb kind = %q", s.BurstBuffer.Kind)
	}
}

func TestQuantityExpression(t *testing.T) {
	var q Quantity
	if err := json.Unmarshal([]byte(`"64*1G"`), &q); err != nil {
		t.Fatal(err)
	}
	if float64(q) != 64e9 {
		t.Errorf("64*1G = %v", float64(q))
	}
	if err := json.Unmarshal([]byte(`123.5`), &q); err != nil {
		t.Fatal(err)
	}
	if float64(q) != 123.5 {
		t.Errorf("number = %v", float64(q))
	}
	if err := json.Unmarshal([]byte(`"num_nodes*2"`), &q); err == nil {
		t.Error("non-constant quantity accepted")
	}
	if err := json.Unmarshal([]byte(`"%%%"`), &q); err == nil {
		t.Error("garbage quantity accepted")
	}
	if err := json.Unmarshal([]byte(`[1]`), &q); err == nil {
		t.Error("array quantity accepted")
	}
}

func TestQuantityRoundTrip(t *testing.T) {
	out, err := json.Marshal(Quantity(5e9))
	if err != nil {
		t.Fatal(err)
	}
	var q Quantity
	if err := json.Unmarshal(out, &q); err != nil {
		t.Fatal(err)
	}
	if float64(q) != 5e9 {
		t.Errorf("round trip = %v", float64(q))
	}
}

func TestSpecValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Spec)
		substr string
	}{
		{"no groups", func(s *Spec) { s.Nodes = nil }, "no node groups"},
		{"zero count", func(s *Spec) { s.Nodes[0].Count = 0 }, "count"},
		{"zero speed", func(s *Spec) { s.Nodes[0].Speed = 0 }, "speed"},
		{"zero link", func(s *Spec) { s.Network.LinkBandwidth = 0 }, "link bandwidth"},
		{"bad topology", func(s *Spec) { s.Network.Topology = "torus" }, "topology"},
		{"backbone missing bw", func(s *Spec) {
			s.Network.Topology = TopologyBackbone
			s.Network.BackboneBandwidth = 0
		}, "backbone"},
		{"negative latency", func(s *Spec) { s.Network.Latency = -1 }, "latency"},
		{"bad pfs", func(s *Spec) { s.PFS = &StorageSpec{ReadBandwidth: 0, WriteBandwidth: 1} }, "PFS"},
		{"bad bb kind", func(s *Spec) {
			s.BurstBuffer = &BurstBufferSpec{Kind: "weird", ReadBandwidth: 1, WriteBandwidth: 1}
		}, "burst buffer kind"},
		{"bad bb bw", func(s *Spec) {
			s.BurstBuffer = &BurstBufferSpec{Kind: BBShared, ReadBandwidth: 0, WriteBandwidth: 1}
		}, "bandwidths"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := Homogeneous("x", 4, 1e9, 1e9, 1e9, 1e9)
			tc.mutate(s)
			err := s.Validate()
			if err == nil {
				t.Fatal("Validate passed, want error")
			}
			if !strings.Contains(err.Error(), tc.substr) {
				t.Errorf("error %q does not mention %q", err, tc.substr)
			}
		})
	}
}

// wantCapacity checks r's capacity: the rate at which one activity alone
// on it progresses.
func wantCapacity(t *testing.T, k *des.Kernel, pool *fluid.Pool, what string, r *fluid.Resource, want float64) {
	t.Helper()
	start, end := k.Now(), des.Time(-1)
	a := fluid.NewActivity(what, 1, func() { end = k.Now() })
	a.AddUsage(r, 1)
	pool.Start(a)
	for k.Step() {
	}
	if got := 1 / float64(end-start); math.Abs(got-want) > 1e-9*want {
		t.Errorf("%s capacity %v, want %v", what, got, want)
	}
}

func TestBuild(t *testing.T) {
	// The document names its second group's nodes with the retired
	// "name_prefix" key: platform documents decode leniently, so it loads.
	s, err := ParseSpec([]byte(testSpecJSON()))
	if err != nil {
		t.Fatal(err)
	}
	k := des.NewKernel()
	pool := fluid.NewPool(k)
	p, err := Build(s, pool)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumNodes() != 6 {
		t.Fatalf("NumNodes = %d", p.NumNodes())
	}
	if p.Speed(0) != 100e9 || p.Speed(4) != 200e9 {
		t.Errorf("node speeds %v, %v", p.Speed(0), p.Speed(4))
	}
	if p.Backbone() == nil {
		t.Fatal("backbone missing")
	}
	wantCapacity(t, k, pool, "backbone", p.Backbone(), 25e9)
	if !p.HasPFS() {
		t.Fatal("pfs missing")
	}
	wantCapacity(t, k, pool, "pfs read", p.PFSRead(), 80e9)
	wantCapacity(t, k, pool, "pfs write", p.PFSWrite(), 40e9)
	if !p.HasBurstBuffer() || p.BurstBufferKind() != BBNodeLocal {
		t.Error("burst buffer missing")
	}
	// Node-local burst buffers are private to a job: no fluid resource.
	if p.BBRead() != nil || p.BBWrite() != nil {
		t.Error("node-local burst buffer has a shared resource")
	}
	if p.LinkBandwidth() != 10e9 {
		t.Errorf("link bandwidth %v", p.LinkBandwidth())
	}
	if p.Latency() != 1e-6 {
		t.Errorf("latency %v", p.Latency())
	}
}

func TestBuildSharedBB(t *testing.T) {
	s := Homogeneous("x", 2, 1e9, 1e9, 1e9, 1e9)
	s.BurstBuffer = &BurstBufferSpec{Kind: BBShared, ReadBandwidth: 5e9, WriteBandwidth: 3e9}
	k := des.NewKernel()
	pool := fluid.NewPool(k)
	p, err := Build(s, pool)
	if err != nil {
		t.Fatal(err)
	}
	if p.BBRead() == nil || p.BBRead() == p.BBWrite() {
		t.Fatal("shared BB needs distinct read and write resources")
	}
	wantCapacity(t, k, pool, "shared BB read", p.BBRead(), 5e9)
	wantCapacity(t, k, pool, "shared BB write", p.BBWrite(), 3e9)
}

func TestBuildStarHasNoBackbone(t *testing.T) {
	s := Homogeneous("x", 2, 1e9, 1e9, 1e9, 1e9)
	p, err := Build(s, fluid.NewPool(des.NewKernel()))
	if err != nil {
		t.Fatal(err)
	}
	if p.Backbone() != nil {
		t.Error("star topology should have no backbone resource")
	}
	if p.HasBurstBuffer() {
		t.Error("no burst buffer configured")
	}
	if p.BBRead() != nil {
		t.Error("BBRead should be nil without burst buffer")
	}
}

// ownerOf returns the owner of a node, or "" when free.
func ownerOf(a *Allocator, id NodeID) string {
	return a.names[a.owner[a.check(id)]]
}

func TestAllocatorBasics(t *testing.T) {
	a := NewAllocator(8)
	if a.Free() != 8 || a.Total() != 8 {
		t.Fatalf("fresh allocator free=%d total=%d", a.Free(), a.Total())
	}
	got, err := a.Allocate("job1", 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []NodeID{0, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Allocate = %v, want %v", got, want)
		}
	}
	if a.Free() != 5 {
		t.Errorf("free = %d, want 5", a.Free())
	}
	if ownerOf(a, 0) != "job1" || ownerOf(a, 3) != "" {
		t.Error("ownership wrong")
	}
	// Deterministic: next allocation takes the next lowest IDs.
	got2, err := a.Allocate("job2", 2)
	if err != nil {
		t.Fatal(err)
	}
	if got2[0] != 3 || got2[1] != 4 {
		t.Errorf("second allocation %v, want [3 4]", got2)
	}
	if err := a.Release("job1", got); err != nil {
		t.Fatal(err)
	}
	if a.Free() != 6 {
		t.Errorf("free after release = %d", a.Free())
	}
	// Released nodes are reused lowest-first.
	got3, _ := a.Allocate("job3", 1)
	if got3[0] != 0 {
		t.Errorf("reuse allocation %v, want [0]", got3)
	}
}

func TestAllocatorErrors(t *testing.T) {
	a := NewAllocator(4)
	if _, err := a.Allocate("j", 5); err == nil {
		t.Error("overallocation succeeded")
	}
	if _, err := a.Allocate("", 1); err == nil {
		t.Error("empty owner accepted")
	}
	if _, err := a.Allocate("j", 0); err == nil {
		t.Error("zero-size allocation accepted")
	}
	if err := a.AllocateNodes("j", nil); err == nil {
		t.Error("empty node list accepted")
	}
	if err := a.AllocateNodes("j", []NodeID{1, 1}); err == nil {
		t.Error("duplicate node accepted")
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(a.AllocateNodes("j1", []NodeID{1, 2}))
	if err := a.AllocateNodes("j2", []NodeID{2, 3}); err == nil {
		t.Error("conflicting allocation accepted")
	}
	// Failed AllocateNodes must not leave partial state: node 3 still free.
	if ownerOf(a, 3) != "" {
		t.Error("partial allocation leaked")
	}
	if err := a.Release("j2", []NodeID{1}); err == nil {
		t.Error("release by non-owner accepted")
	}
	if err := a.Release("j1", []NodeID{1, 2}); err != nil {
		t.Error(err)
	}
}

// Property: allocate/release sequences conserve node count and never
// double-assign.
func TestAllocatorConservationProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := des.NewRNG(seed)
		const total = 16
		a := NewAllocator(total)
		live := map[string][]NodeID{}
		names := []string{"a", "b", "c", "d"}
		for step := 0; step < 200; step++ {
			name := names[rng.Intn(len(names))]
			if nodes, ok := live[name]; ok {
				if err := a.Release(name, nodes); err != nil {
					return false
				}
				delete(live, name)
			} else {
				want := 1 + rng.Intn(6)
				nodes, err := a.Allocate(name, want)
				if err != nil {
					if want <= a.Free() {
						return false // spurious failure
					}
					continue
				}
				live[name] = nodes
			}
			// Invariant: free + sum(live) == total.
			sum := 0
			for _, ns := range live {
				sum += len(ns)
			}
			if a.Free()+sum != total {
				return false
			}
			// Invariant: owners agree.
			for name, ns := range live {
				for _, id := range ns {
					if ownerOf(a, id) != name {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestHomogeneous(t *testing.T) {
	s := Homogeneous("h", 16, 1e12, 1e10, 8e10, 4e10)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.TotalNodes() != 16 {
		t.Errorf("TotalNodes = %d", s.TotalNodes())
	}
}

func TestTreeTopologySpec(t *testing.T) {
	s := Homogeneous("t", 8, 1e9, 1e9, 1e9, 1e9)
	s.Network.Topology = TopologyTree
	if err := s.Validate(); err == nil {
		t.Error("tree without group_size accepted")
	}
	s.Network.GroupSize = 4
	if err := s.Validate(); err == nil {
		t.Error("tree without uplink_bandwidth accepted")
	}
	s.Network.UplinkBandwidth = 2e9
	if err := s.Validate(); err != nil {
		t.Fatalf("valid tree rejected: %v", err)
	}
	k := des.NewKernel()
	pool := fluid.NewPool(k)
	p, err := Build(s, pool)
	if err != nil {
		t.Fatal(err)
	}
	if !p.IsTree() || len(p.uplinks) != 2 {
		t.Errorf("tree=%v groups=%d", p.IsTree(), len(p.uplinks))
	}
	if p.GroupOf(0) != 0 || p.GroupOf(3) != 0 || p.GroupOf(4) != 1 {
		t.Error("GroupOf wrong")
	}
	if p.Uplink(0) == p.Uplink(1) {
		t.Error("uplinks not distinct")
	}
	wantCapacity(t, k, pool, "uplink", p.Uplink(0), 2e9)
	// No core configured: Backbone nil.
	if p.Backbone() != nil {
		t.Error("unexpected core resource")
	}
	counts := p.GroupCounts([]NodeID{0, 1, 4})
	if counts[0] != 2 || counts[1] != 1 {
		t.Errorf("GroupCounts %v", counts)
	}
	// With a core:
	s.Network.BackboneBandwidth = 8e9
	p2, err := Build(s, fluid.NewPool(des.NewKernel()))
	if err != nil {
		t.Fatal(err)
	}
	if p2.Backbone() == nil {
		t.Error("core missing")
	}
	// Non-tree platforms report no groups.
	flat := Homogeneous("f", 4, 1e9, 1e9, 1e9, 1e9)
	pf, _ := Build(flat, fluid.NewPool(des.NewKernel()))
	if pf.IsTree() || pf.GroupCounts([]NodeID{0}) != nil {
		t.Error("star platform reports tree structure")
	}
}
