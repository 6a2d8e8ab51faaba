package job

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/des"
)

// ArrivalKind selects the job inter-arrival process.
type ArrivalKind string

// Arrival processes.
const (
	// ArrivalPoisson draws exponential inter-arrival times (rate = Rate).
	ArrivalPoisson ArrivalKind = "poisson"
	// ArrivalWeibull draws Weibull inter-arrival times (Shape, Scale);
	// shape < 1 produces the bursty submissions seen in real traces.
	ArrivalWeibull ArrivalKind = "weibull"
	// ArrivalUniform spaces submissions evenly at 1/Rate.
	ArrivalUniform ArrivalKind = "uniform"
	// ArrivalAll submits every job at time zero (saturation experiments).
	ArrivalAll ArrivalKind = "all"
)

// Arrival configures the submission process.
type Arrival struct {
	Kind ArrivalKind
	// Rate is jobs per second (poisson, uniform).
	Rate float64
	// Shape and Scale parameterize the Weibull inter-arrival distribution.
	Shape float64
	Scale float64
}

// ProfileKind selects an application template.
type ProfileKind string

// Application templates used by the generator.
const (
	// ProfileComputeBound: iterative compute + allreduce, I/O only at the
	// edges (read input, write result).
	ProfileComputeBound ProfileKind = "compute_bound"
	// ProfileIOBound: iterative compute + checkpoint writes; I/O dominates.
	ProfileIOBound ProfileKind = "io_bound"
	// ProfileMixed: compute, communication, and periodic I/O in every
	// iteration.
	ProfileMixed ProfileKind = "mixed"
)

// Profile describes one job class in the synthetic mix. Ranges are drawn
// log-uniformly.
type Profile struct {
	// Name labels jobs from this profile.
	Name string
	// Weight is the profile's relative share of generated jobs.
	Weight float64
	// Kind selects the application template.
	Kind ProfileKind
	// Iterations bounds the iterative phase's iteration count.
	Iterations [2]int
	// ComputeSecs bounds the per-iteration compute time (seconds) at the
	// job's base allocation.
	ComputeSecs [2]float64
	// CommBytes bounds the per-iteration allreduce payload (bytes);
	// ignored by ProfileIOBound.
	CommBytes [2]float64
	// IOBytes bounds the input/output (and checkpoint) volume in bytes.
	IOBytes [2]float64
	// SerialFraction bounds the Amdahl serial fraction of the compute.
	SerialFraction [2]float64
}

// Config drives Generate.
type Config struct {
	// Name labels the workload.
	Name string
	// Seed makes generation reproducible.
	Seed uint64
	// Count is the number of jobs.
	Count int
	// Arrival configures submissions.
	Arrival Arrival
	// Nodes bounds job base allocations (drawn as powers of two).
	Nodes [2]int
	// MachineNodes caps allocation requests (and malleable maxima).
	MachineNodes int
	// NodeSpeed (flops/s) converts target compute seconds into flops.
	NodeSpeed float64
	// TypeShares is the distribution over job flexibility classes. Shares
	// need not sum to 1; they are normalized. Empty means all rigid.
	TypeShares map[Type]float64
	// Profiles is the class mix; empty selects DefaultProfiles.
	Profiles []Profile
	// MalleableTarget selects the I/O target for checkpoints: TargetPFS
	// (default) or TargetBB.
	CheckpointTarget IOTarget
	// Users spreads jobs over this many synthetic accounts ("user0"...)
	// for fair-share experiments (0 = no user attribution).
	Users int
	// CheckpointInterval, when non-empty, tags every generated job with
	// this checkpoint_interval expression (seconds between restart
	// checkpoints; "0" checkpoints every iteration). Empty leaves jobs
	// without checkpoints — a node failure restarts them from scratch.
	CheckpointInterval string
}

// DefaultProfiles is a balanced mix inspired by the workload classes HPC
// papers evaluate on: two thirds compute-bound simulation jobs, the rest
// split between I/O-heavy and mixed workloads.
func DefaultProfiles() []Profile {
	return []Profile{
		{
			Name: "sim", Weight: 4, Kind: ProfileComputeBound,
			Iterations:     [2]int{10, 40},
			ComputeSecs:    [2]float64{20, 120},
			CommBytes:      [2]float64{16e6, 256e6},
			IOBytes:        [2]float64{1e9, 32e9},
			SerialFraction: [2]float64{0.01, 0.08},
		},
		{
			Name: "ckpt", Weight: 1, Kind: ProfileIOBound,
			Iterations:     [2]int{5, 20},
			ComputeSecs:    [2]float64{10, 60},
			IOBytes:        [2]float64{32e9, 256e9},
			SerialFraction: [2]float64{0.01, 0.05},
		},
		{
			Name: "mixed", Weight: 1, Kind: ProfileMixed,
			Iterations:     [2]int{8, 30},
			ComputeSecs:    [2]float64{15, 90},
			CommBytes:      [2]float64{32e6, 512e6},
			IOBytes:        [2]float64{4e9, 64e9},
			SerialFraction: [2]float64{0.02, 0.1},
		},
	}
}

// Generate builds a reproducible synthetic workload. It is Stream drained
// into memory: the same Config streams the identical jobs through
// NewStream/Next when the workload is too large to hold at once.
func Generate(cfg Config) (*Workload, error) {
	s, err := NewStream(cfg)
	if err != nil {
		return nil, err
	}
	w := &Workload{Name: cfg.Name, Jobs: make([]*Job, 0, cfg.Count)}
	for {
		j, err := s.Next()
		if err != nil {
			return nil, err
		}
		if j == nil {
			break
		}
		w.Jobs = append(w.Jobs, j)
	}
	// Next validated every job against the machine; what is left to check
	// is the workload as a whole.
	w.Sort()
	if err := w.validateDependencies(); err != nil {
		return nil, fmt.Errorf("job: generated workload invalid: %w", err)
	}
	return w, nil
}

func normalizeShares(shares map[Type]float64) ([]Type, []float64) {
	if len(shares) == 0 {
		return nil, nil
	}
	types := make([]Type, 0, len(shares))
	for t := range shares {
		types = append(types, t)
	}
	sort.Slice(types, func(i, j int) bool { return types[i] < types[j] })
	total := 0.0
	for _, t := range types {
		total += shares[t]
	}
	cum := make([]float64, len(types))
	acc := 0.0
	for i, t := range types {
		acc += shares[t] / total
		cum[i] = acc
	}
	return types, cum
}

func profileCum(profiles []Profile) []float64 {
	total := 0.0
	for i := range profiles {
		if profiles[i].Weight <= 0 {
			profiles[i].Weight = 1
		}
		total += profiles[i].Weight
	}
	cum := make([]float64, len(profiles))
	acc := 0.0
	for i := range profiles {
		acc += profiles[i].Weight / total
		cum[i] = acc
	}
	return cum
}

func pick(u float64, cum []float64) int {
	for i, c := range cum {
		if u < c {
			return i
		}
	}
	return len(cum) - 1
}

func interArrival(rng *des.RNG, a Arrival) float64 {
	switch a.Kind {
	case ArrivalPoisson:
		return rng.Exp(a.Rate)
	case ArrivalWeibull:
		return rng.Weibull(a.Shape, a.Scale)
	case ArrivalUniform:
		return 1 / a.Rate
	default: // ArrivalAll or unset; NewStream refuses every other kind
		return 0
	}
}

func drawRange(rng *des.RNG, r [2]float64) float64 {
	if r[0] == r[1] {
		return r[0]
	}
	return rng.LogUniform(r[0], r[1])
}

func drawIntRange(rng *des.RNG, r [2]int) int {
	if r[0] >= r[1] {
		return r[0]
	}
	return r[0] + rng.Intn(r[1]-r[0]+1)
}

// estimateRuntime is a crude analytic bound used only to derive walltime
// limits; it deliberately overestimates I/O (no overlap, full contention
// ignored).
func estimateRuntime(iters int, computeSecs, commBytes, ioBytes float64, kind ProfileKind) float64 {
	ioTime := 3 * ioBytes / 1e9 // assume ~1 GB/s effective per job
	commTime := float64(iters) * (2 * commBytes / 1e9)
	computeTime := float64(iters) * computeSecs
	switch kind {
	case ProfileIOBound:
		ioTime += float64(iters) * ioBytes / 1e9
	case ProfileMixed:
		ioTime += ioBytes / 1e9
	}
	total := computeTime + commTime + ioTime
	return math.Max(total, 60)
}
