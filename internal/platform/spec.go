// Package platform models the simulated cluster: compute nodes, the
// interconnect, the parallel file system (PFS), and burst buffers.
//
// A platform is described by a serializable Spec (typically loaded from
// JSON) and instantiated into a runtime Platform whose components are
// resources of a fluid.Pool. Quantities in a Spec may use engineering
// suffixes ("100G" = 1e11) via the expression language.
package platform

import (
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/failure"
	"repro/internal/unit"
)

// Topology selects how the interconnect is modelled.
type Topology string

const (
	// TopologyStar gives every node a dedicated up/down link into a
	// contention-free core. Only the node links constrain transfers.
	TopologyStar Topology = "star"
	// TopologyBackbone adds a shared backbone (bisection) resource that all
	// traffic crosses, modelling a tapered fat-tree at machine granularity.
	TopologyBackbone Topology = "backbone"
	// TopologyTree groups nodes under leaf switches: traffic between
	// groups (and to the PFS) crosses per-group uplinks and optionally a
	// shared core. Allocation locality matters: jobs spanning groups
	// contend on uplinks.
	TopologyTree Topology = "tree"
)

// BurstBufferKind distinguishes the two deployment models of burst buffers.
type BurstBufferKind string

const (
	// BBNodeLocal places an independent buffer on every compute node
	// (e.g. node-local NVMe).
	BBNodeLocal BurstBufferKind = "node_local"
	// BBShared is a network-attached burst buffer pool shared by all nodes.
	BBShared BurstBufferKind = "shared"
)

// Quantity aliases unit.Quantity: a float64 that unmarshals from either a
// JSON number or a constant expression string such as "100G" or "64*1G".
type Quantity = unit.Quantity

// NodeGroupSpec describes a homogeneous group of compute nodes.
type NodeGroupSpec struct {
	// Count is the number of nodes in the group.
	Count int `json:"count"`
	// Speed is the compute capability of each node in flops/s.
	Speed Quantity `json:"speed"`
}

// NetworkSpec describes the interconnect.
type NetworkSpec struct {
	// Topology is "star" (default) or "backbone".
	Topology Topology `json:"topology,omitempty"`
	// LinkBandwidth is each node's injection bandwidth in bytes/s.
	LinkBandwidth Quantity `json:"link_bandwidth"`
	// BackboneBandwidth is the shared core bandwidth in bytes/s
	// (required for the backbone topology; optional — non-blocking core —
	// for the tree topology).
	BackboneBandwidth Quantity `json:"backbone_bandwidth,omitempty"`
	// GroupSize is the number of nodes per leaf switch (tree topology).
	GroupSize int `json:"group_size,omitempty"`
	// UplinkBandwidth is each leaf switch's uplink capacity in bytes/s
	// (tree topology). UplinkBandwidth < GroupSize*LinkBandwidth gives a
	// tapered network.
	UplinkBandwidth Quantity `json:"uplink_bandwidth,omitempty"`
	// Latency is the per-transfer base latency in seconds, added once per
	// communication operation.
	Latency Quantity `json:"latency,omitempty"`
}

// StorageSpec describes a bandwidth-limited storage target.
type StorageSpec struct {
	// ReadBandwidth in bytes/s aggregated over all concurrent readers.
	ReadBandwidth Quantity `json:"read_bandwidth"`
	// WriteBandwidth in bytes/s aggregated over all concurrent writers.
	WriteBandwidth Quantity `json:"write_bandwidth"`
}

// BurstBufferSpec describes the burst-buffer tier, if present.
type BurstBufferSpec struct {
	// Kind is "node_local" or "shared".
	Kind BurstBufferKind `json:"kind"`
	// ReadBandwidth/WriteBandwidth are per node for node_local, aggregate
	// for shared.
	ReadBandwidth  Quantity `json:"read_bandwidth"`
	WriteBandwidth Quantity `json:"write_bandwidth"`
}

// Spec is the serializable description of a platform.
type Spec struct {
	// Name labels the platform in reports.
	Name string `json:"name"`
	// Nodes lists the node groups making up the machine.
	Nodes []NodeGroupSpec `json:"nodes"`
	// Network describes the interconnect.
	Network NetworkSpec `json:"network"`
	// PFS describes the parallel file system; nil disables file I/O.
	PFS *StorageSpec `json:"pfs,omitempty"`
	// BurstBuffer describes the burst-buffer tier; nil disables it.
	BurstBuffer *BurstBufferSpec `json:"burst_buffer,omitempty"`
	// Failures describes the node failure/repair model; nil means nodes
	// never fail. An engine-level failure spec overrides this one.
	Failures *failure.Spec `json:"failures,omitempty"`
}

// TotalNodes returns the machine size.
func (s *Spec) TotalNodes() int {
	total := 0
	for _, g := range s.Nodes {
		total += g.Count
	}
	return total
}

// Validate checks the spec for structural errors.
func (s *Spec) Validate() error {
	if len(s.Nodes) == 0 {
		return fmt.Errorf("platform %q: no node groups", s.Name)
	}
	for i, g := range s.Nodes {
		if g.Count <= 0 {
			return fmt.Errorf("platform %q: node group %d has count %d", s.Name, i, g.Count)
		}
		if g.Speed <= 0 || math.IsNaN(float64(g.Speed)) {
			return fmt.Errorf("platform %q: node group %d has speed %v", s.Name, i, float64(g.Speed))
		}
	}
	if s.Network.LinkBandwidth <= 0 {
		return fmt.Errorf("platform %q: link bandwidth must be positive", s.Name)
	}
	switch s.Network.Topology {
	case "", TopologyStar:
	case TopologyBackbone:
		if s.Network.BackboneBandwidth <= 0 {
			return fmt.Errorf("platform %q: backbone topology requires backbone_bandwidth", s.Name)
		}
	case TopologyTree:
		if s.Network.GroupSize <= 0 {
			return fmt.Errorf("platform %q: tree topology requires group_size", s.Name)
		}
		if s.Network.UplinkBandwidth <= 0 {
			return fmt.Errorf("platform %q: tree topology requires uplink_bandwidth", s.Name)
		}
	default:
		return fmt.Errorf("platform %q: unknown topology %q", s.Name, s.Network.Topology)
	}
	if s.Network.Latency < 0 {
		return fmt.Errorf("platform %q: negative latency", s.Name)
	}
	if s.PFS != nil {
		if s.PFS.ReadBandwidth <= 0 || s.PFS.WriteBandwidth <= 0 {
			return fmt.Errorf("platform %q: PFS bandwidths must be positive", s.Name)
		}
	}
	if s.BurstBuffer != nil {
		switch s.BurstBuffer.Kind {
		case BBNodeLocal, BBShared:
		default:
			return fmt.Errorf("platform %q: unknown burst buffer kind %q", s.Name, s.BurstBuffer.Kind)
		}
		if s.BurstBuffer.ReadBandwidth <= 0 || s.BurstBuffer.WriteBandwidth <= 0 {
			return fmt.Errorf("platform %q: burst buffer bandwidths must be positive", s.Name)
		}
	}
	if err := s.Failures.Validate(); err != nil {
		return fmt.Errorf("platform %q: %w", s.Name, err)
	}
	return nil
}

// ParseSpec decodes and validates a JSON platform description.
func ParseSpec(data []byte) (*Spec, error) {
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("platform: decoding spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Homogeneous is a convenience constructor for the common case of a uniform
// cluster with a star network and a PFS.
func Homogeneous(name string, nodes int, nodeSpeed, linkBW, pfsReadBW, pfsWriteBW float64) *Spec {
	return &Spec{
		Name:  name,
		Nodes: []NodeGroupSpec{{Count: nodes, Speed: Quantity(nodeSpeed)}},
		Network: NetworkSpec{
			Topology:      TopologyStar,
			LinkBandwidth: Quantity(linkBW),
		},
		PFS: &StorageSpec{
			ReadBandwidth:  Quantity(pfsReadBW),
			WriteBandwidth: Quantity(pfsWriteBW),
		},
	}
}
