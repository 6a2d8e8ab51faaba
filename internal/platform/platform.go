package platform

import (
	"fmt"

	"repro/internal/fluid"
)

// NodeID identifies a compute node. IDs are dense, starting at zero.
type NodeID int

// Node is a runtime compute node.
type Node struct {
	// ID is the node's index in the platform.
	ID NodeID
	// Name is the node's human-readable name.
	Name string
	// Speed is the node's compute capability in flops/s.
	Speed float64

	compute *fluid.Resource
	link    *fluid.Resource
	bbRead  *fluid.Resource // node-local burst buffer, nil otherwise
	bbWrite *fluid.Resource
}

// Platform is an instantiated cluster whose components are fluid resources.
// It is created from a Spec via Build.
type Platform struct {
	spec  *Spec
	pool  *fluid.Pool
	nodes []*Node

	backbone     *fluid.Resource   // nil for star topology (optional core for tree)
	uplinks      []*fluid.Resource // per-group uplinks (tree topology)
	pfsRead      *fluid.Resource
	pfsWrite     *fluid.Resource
	sharedBBRead *fluid.Resource
	sharedBBWr   *fluid.Resource
}

// Build instantiates the spec's resources into the pool.
func Build(spec *Spec, pool *fluid.Pool) (*Platform, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	p := &Platform{spec: spec, pool: pool}
	id := NodeID(0)
	for _, g := range spec.Nodes {
		prefix := g.NamePrefix
		if prefix == "" {
			prefix = "node"
		}
		for i := 0; i < g.Count; i++ {
			name := fmt.Sprintf("%s%d", prefix, int(id))
			n := &Node{
				ID:      id,
				Name:    name,
				Speed:   float64(g.Speed),
				compute: pool.NewResource(name+".cpu", float64(g.Speed)),
				link:    pool.NewResource(name+".link", float64(spec.Network.LinkBandwidth)),
			}
			if bb := spec.BurstBuffer; bb != nil && bb.Kind == BBNodeLocal {
				n.bbRead = pool.NewResource(name+".bb.read", float64(bb.ReadBandwidth))
				n.bbWrite = pool.NewResource(name+".bb.write", float64(bb.WriteBandwidth))
			}
			p.nodes = append(p.nodes, n)
			id++
		}
	}
	if spec.Network.Topology == TopologyBackbone {
		p.backbone = pool.NewResource("backbone", float64(spec.Network.BackboneBandwidth))
	}
	if spec.Network.Topology == TopologyTree {
		groups := (len(p.nodes) + spec.Network.GroupSize - 1) / spec.Network.GroupSize
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
func (p *Platform) NumNodes() int { return len(p.nodes) }

// Node returns the node with the given ID.
func (p *Platform) Node(id NodeID) *Node {
	if int(id) < 0 || int(id) >= len(p.nodes) {
		panic(fmt.Sprintf("platform: node %d out of range [0,%d)", id, len(p.nodes)))
	}
	return p.nodes[id]
}

// Latency returns the per-operation network latency in seconds.
func (p *Platform) Latency() float64 { return float64(p.spec.Network.Latency) }

// Compute returns the compute resource of a node.
func (p *Platform) Compute(id NodeID) *fluid.Resource { return p.Node(id).compute }

// Link returns the injection-link resource of a node.
func (p *Platform) Link(id NodeID) *fluid.Resource { return p.Node(id).link }

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

// BBRead returns the burst-buffer read resource serving the given node:
// the node-local resource or the shared pool. Nil when no burst buffer.
func (p *Platform) BBRead(id NodeID) *fluid.Resource {
	if p.sharedBBRead != nil {
		return p.sharedBBRead
	}
	return p.Node(id).bbRead
}

// BBWrite returns the burst-buffer write resource serving the given node.
func (p *Platform) BBWrite(id NodeID) *fluid.Resource {
	if p.sharedBBWr != nil {
		return p.sharedBBWr
	}
	return p.Node(id).bbWrite
}
