package platform

import (
	"fmt"

	"repro/internal/fluid"
)

// NodeID identifies a compute node. IDs are dense, starting at zero.
type NodeID int

// Platform is an instantiated cluster. It is created from a Spec via
// Build. A job's own nodes, injection links and node-local burst buffers
// cannot contend with other jobs, so the engine gives work on them closed
// forms from the spec's rates; only the resources jobs share are fluid
// resources.
type Platform struct {
	spec   *Spec
	pool   *fluid.Pool
	speeds []float64 // per node, flops/s

	backbone     *fluid.Resource   // nil for star topology (optional core for tree)
	uplinks      []*fluid.Resource // per-group uplinks (tree topology)
	pfsRead      *fluid.Resource
	pfsWrite     *fluid.Resource
	sharedBBRead *fluid.Resource
	sharedBBWr   *fluid.Resource
}

// Build instantiates the spec's shared resources into the pool.
func Build(spec *Spec, pool *fluid.Pool) (*Platform, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	p := &Platform{spec: spec, pool: pool, speeds: make([]float64, 0, spec.TotalNodes())}
	for _, g := range spec.Nodes {
		for i := 0; i < g.Count; i++ {
			p.speeds = append(p.speeds, float64(g.Speed))
		}
	}
	if spec.Network.Topology == TopologyBackbone {
		p.backbone = pool.NewResource("backbone", float64(spec.Network.BackboneBandwidth))
	}
	if spec.Network.Topology == TopologyTree {
		groups := (len(p.speeds) + spec.Network.GroupSize - 1) / spec.Network.GroupSize
		for g := 0; g < groups; g++ {
			p.uplinks = append(p.uplinks,
				pool.NewResource(fmt.Sprintf("uplink%d", g), float64(spec.Network.UplinkBandwidth)))
		}
		if spec.Network.BackboneBandwidth > 0 {
			p.backbone = pool.NewResource("core", float64(spec.Network.BackboneBandwidth))
		}
	}
	if spec.PFS != nil {
		p.pfsRead = pool.NewResource("pfs.read", float64(spec.PFS.ReadBandwidth))
		p.pfsWrite = pool.NewResource("pfs.write", float64(spec.PFS.WriteBandwidth))
	}
	if bb := spec.BurstBuffer; bb != nil && bb.Kind == BBShared {
		p.sharedBBRead = pool.NewResource("bb.read", float64(bb.ReadBandwidth))
		p.sharedBBWr = pool.NewResource("bb.write", float64(bb.WriteBandwidth))
	}
	return p, nil
}

// Spec returns the description this platform was built from.
func (p *Platform) Spec() *Spec { return p.spec }

// Pool returns the fluid pool holding the platform's resources.
func (p *Platform) Pool() *fluid.Pool { return p.pool }

// NumNodes returns the machine size.
func (p *Platform) NumNodes() int { return len(p.speeds) }

// Speed returns a node's compute capability in flops/s.
func (p *Platform) Speed(id NodeID) float64 {
	if int(id) < 0 || int(id) >= len(p.speeds) {
		panic(fmt.Sprintf("platform: node %d out of range [0,%d)", id, len(p.speeds)))
	}
	return p.speeds[id]
}

// LinkBandwidth returns every node's injection bandwidth in bytes/s.
func (p *Platform) LinkBandwidth() float64 { return float64(p.spec.Network.LinkBandwidth) }

// Latency returns the per-operation network latency in seconds.
func (p *Platform) Latency() float64 { return float64(p.spec.Network.Latency) }

// Backbone returns the shared core resource, or nil for star topologies
// (and trees with a non-blocking core).
func (p *Platform) Backbone() *fluid.Resource { return p.backbone }

// IsTree reports whether the platform uses the tree topology.
func (p *Platform) IsTree() bool { return len(p.uplinks) > 0 }

// GroupOf returns the leaf-switch group a node belongs to (tree only).
func (p *Platform) GroupOf(id NodeID) int {
	return int(id) / p.spec.Network.GroupSize
}

// Uplink returns a group's uplink resource (tree only).
func (p *Platform) Uplink(group int) *fluid.Resource { return p.uplinks[group] }

// GroupCounts tallies how many of the given nodes fall into each group;
// the map is keyed by group index. Returns nil unless the topology is a
// tree.
func (p *Platform) GroupCounts(nodes []NodeID) map[int]int {
	if !p.IsTree() {
		return nil
	}
	out := map[int]int{}
	for _, id := range nodes {
		out[p.GroupOf(id)]++
	}
	return out
}

// HasPFS reports whether the platform has a parallel file system.
func (p *Platform) HasPFS() bool { return p.pfsRead != nil }

// PFSRead returns the PFS read-bandwidth resource; nil if absent.
func (p *Platform) PFSRead() *fluid.Resource { return p.pfsRead }

// PFSWrite returns the PFS write-bandwidth resource; nil if absent.
func (p *Platform) PFSWrite() *fluid.Resource { return p.pfsWrite }

// HasBurstBuffer reports whether any burst-buffer tier exists.
func (p *Platform) HasBurstBuffer() bool {
	return p.spec.BurstBuffer != nil
}

// BurstBufferKind returns the configured kind, or "" when absent.
func (p *Platform) BurstBufferKind() BurstBufferKind {
	if p.spec.BurstBuffer == nil {
		return ""
	}
	return p.spec.BurstBuffer.Kind
}

// BBRead returns the shared burst buffer's read-bandwidth resource; nil
// unless the burst buffer is of kind BBShared.
func (p *Platform) BBRead() *fluid.Resource { return p.sharedBBRead }

// BBWrite returns the shared burst buffer's write-bandwidth resource; nil
// unless the burst buffer is of kind BBShared.
func (p *Platform) BBWrite() *fluid.Resource { return p.sharedBBWr }
