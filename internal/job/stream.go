package job

import (
	"fmt"

	"repro/internal/des"
)

// Stream produces the synthetic workload of Generate one job at a time,
// in submission order, without materialising the whole job list: the
// working set is the generator state plus caches of parsed model
// expressions and application templates, both bounded by the profile mix
// rather than the job count. A million-job workload streams in constant
// memory.
//
// Stream and Generate are the same generator — Generate drains a Stream —
// so a given Config yields identical jobs either way.
type Stream struct {
	cfg        Config
	arrivalRNG *des.RNG
	jobRNG     *des.RNG
	types      []Type
	typeCum    []float64
	profCum    []float64
	ckptModel  *Model

	// models caches parsed expressions and apps caches assembled
	// application templates: jobs differ only through their Args, so the
	// distinct expression strings and phase structures are bounded by the
	// profile mix, not the job count. Sharing is safe — the engine treats
	// applications and models as immutable.
	models map[string]*Model
	apps   map[appKey]*Application

	now float64
	idx int
}

// appKey identifies one shareable application template.
type appKey struct {
	kind       ProfileKind
	iters      int
	schedPoint bool
	// minN/maxN parameterize the evolving request schedule (0 otherwise).
	minN, maxN int
}

// NewStream validates cfg and positions the stream before the first job.
func NewStream(cfg Config) (*Stream, error) {
	if cfg.Count <= 0 {
		return nil, fmt.Errorf("job: generator count must be positive")
	}
	if cfg.Nodes[0] <= 0 || cfg.Nodes[1] < cfg.Nodes[0] {
		return nil, fmt.Errorf("job: invalid node range %v", cfg.Nodes)
	}
	if cfg.MachineNodes <= 0 {
		cfg.MachineNodes = cfg.Nodes[1]
	}
	if cfg.NodeSpeed <= 0 {
		return nil, fmt.Errorf("job: node speed must be positive")
	}
	if cfg.WallTimeFactor == 0 {
		cfg.WallTimeFactor = 2.5
	}
	if len(cfg.Profiles) == 0 {
		cfg.Profiles = DefaultProfiles()
	}
	if cfg.CheckpointTarget == "" {
		cfg.CheckpointTarget = TargetPFS
	}
	s := &Stream{
		cfg:    cfg,
		models: map[string]*Model{},
		apps:   map[appKey]*Application{},
	}
	if cfg.CheckpointInterval != "" {
		m, err := NewExprModel(cfg.CheckpointInterval)
		if err != nil {
			return nil, fmt.Errorf("job: checkpoint interval: %w", err)
		}
		s.ckptModel = m
	}
	rng := des.NewRNG(cfg.Seed)
	s.arrivalRNG = rng.Split()
	s.jobRNG = rng.Split()
	s.types, s.typeCum = normalizeShares(cfg.TypeShares)
	s.profCum = profileCum(s.cfg.Profiles)
	return s, nil
}

// Count returns the total number of jobs the stream produces.
func (s *Stream) Count() int { return s.cfg.Count }

// Next returns the next job, already validated against the machine size,
// or (nil, nil) once the stream is exhausted. Submit times are
// non-decreasing and IDs are assigned densely in stream order, matching
// what Workload.Sort would produce.
func (s *Stream) Next() (*Job, error) {
	if s.idx >= s.cfg.Count {
		return nil, nil
	}
	i := s.idx
	s.idx++
	s.now += interArrival(s.arrivalRNG, s.cfg.Arrival)
	prof := &s.cfg.Profiles[pick(s.jobRNG.Float64(), s.profCum)]
	jtype := Rigid
	if len(s.types) > 0 {
		jtype = s.types[pick(s.jobRNG.Float64(), s.typeCum)]
	}
	j, err := s.synthesize(prof, jtype, i, s.now)
	if err != nil {
		return nil, err
	}
	j.ID = ID(i)
	j.CheckpointInterval = s.ckptModel
	if s.cfg.Users > 0 {
		j.User = fmt.Sprintf("user%d", s.jobRNG.Intn(s.cfg.Users))
	}
	if err := j.Validate(s.cfg.MachineNodes); err != nil {
		return nil, fmt.Errorf("job: generated workload invalid: %w", err)
	}
	return j, nil
}

// model parses expr once and serves it from the cache thereafter.
func (s *Stream) model(expr string) *Model {
	m, ok := s.models[expr]
	if !ok {
		m = MustExprModel(expr)
		s.models[expr] = m
	}
	return m
}

// synthesize builds one job from a profile.
func (s *Stream) synthesize(prof *Profile, jtype Type, idx int, submit float64) (*Job, error) {
	cfg, rng := &s.cfg, s.jobRNG
	base := rng.PowerOfTwo(cfg.Nodes[0], min(cfg.Nodes[1], cfg.MachineNodes))
	iters := drawIntRange(rng, prof.Iterations)
	computeSecs := drawRange(rng, prof.ComputeSecs)
	serial := drawRange(rng, prof.SerialFraction)
	ioBytes := drawRange(rng, prof.IOBytes)
	commBytes := 0.0
	if prof.CommBytes[1] > 0 {
		commBytes = drawRange(rng, prof.CommBytes)
	}

	// Total flops per iteration chosen so the compute task takes
	// computeSecs at the base allocation under the Amdahl model below.
	amdahlBase := serial + (1-serial)/float64(base)
	flopsIter := computeSecs * cfg.NodeSpeed / amdahlBase

	j := &Job{
		Name:       fmt.Sprintf("%s%d", prof.Name, idx),
		Type:       jtype,
		SubmitTime: submit,
		Args: map[string]float64{
			"flops_iter": flopsIter,
			"serial":     serial,
			"io_bytes":   ioBytes,
			"comm_bytes": commBytes,
		},
	}
	switch jtype {
	case Rigid, Moldable:
		j.NumNodes = base
		j.NumNodesMin = max(1, base/4)
		j.NumNodesMax = min(base*2, cfg.MachineNodes)
	case Malleable, Evolving:
		j.NumNodesMin = max(1, base/4)
		j.NumNodesMax = min(base*4, cfg.MachineNodes)
		j.NumNodes = base
		// Malleable reconfigurations redistribute the working set.
		j.ReconfigCost = s.model("0.5 + io_bytes / (num_nodes_new * 10G)")
	}

	key := appKey{kind: prof.Kind, iters: iters, schedPoint: jtype.Adaptive()}
	if jtype == Evolving {
		key.minN, key.maxN = j.NumNodesMin, j.NumNodesMax
	}
	app, ok := s.apps[key]
	if !ok {
		var err error
		app, err = s.buildApp(key)
		if err != nil {
			return nil, err
		}
		s.apps[key] = app
	}
	j.App = app

	if cfg.WallTimeFactor > 0 {
		// Adaptive jobs may be shrunk down to their minimum allocation, so
		// the walltime estimate must cover the worst (smallest) case or a
		// shrink-happy scheduler would get jobs killed.
		worstScale := 1.0
		if jtype.Adaptive() {
			worstScale = float64(base) / float64(j.NumNodesMin)
		}
		j.WallTimeLimit = cfg.WallTimeFactor * estimateRuntime(iters, computeSecs*worstScale, commBytes, ioBytes, prof.Kind)
	}
	return j, nil
}

// buildApp assembles the application template for key.
func (s *Stream) buildApp(key appKey) (*Application, error) {
	computeModel := s.model("flops_iter * (serial + (1-serial)/num_nodes)")
	iters, schedPoint := key.iters, key.schedPoint

	var phases []Phase
	switch key.kind {
	case ProfileComputeBound:
		phases = []Phase{
			{Name: "load", Tasks: []Task{
				{Kind: TaskRead, Model: s.model("io_bytes"), Target: TargetPFS},
			}},
			{Name: "solve", Iterations: iters, SchedulingPoint: schedPoint, Tasks: []Task{
				{Kind: TaskCompute, Model: computeModel},
				{Kind: TaskComm, Model: s.model("comm_bytes"), Pattern: PatternAllReduce},
			}},
			{Name: "store", Tasks: []Task{
				{Kind: TaskWrite, Model: s.model("io_bytes"), Target: TargetPFS},
			}},
		}
	case ProfileIOBound:
		phases = []Phase{
			{Name: "load", Tasks: []Task{
				{Kind: TaskRead, Model: s.model("io_bytes"), Target: TargetPFS},
			}},
			{Name: "step", Iterations: iters, SchedulingPoint: schedPoint, Tasks: []Task{
				{Kind: TaskCompute, Model: computeModel},
				{Kind: TaskWrite, Model: s.model("io_bytes"), Target: s.cfg.CheckpointTarget, Name: "checkpoint"},
			}},
		}
	case ProfileMixed:
		phases = []Phase{
			{Name: "load", Tasks: []Task{
				{Kind: TaskRead, Model: s.model("io_bytes"), Target: TargetPFS},
			}},
			{Name: "step", Iterations: iters, SchedulingPoint: schedPoint, Tasks: []Task{
				{Kind: TaskCompute, Model: computeModel},
				{Kind: TaskComm, Model: s.model("comm_bytes"), Pattern: PatternAllToAll},
				{Kind: TaskWrite, Model: s.model("io_bytes / iterations"), Target: s.cfg.CheckpointTarget},
			}},
			{Name: "store", Tasks: []Task{
				{Kind: TaskWrite, Model: s.model("io_bytes"), Target: TargetPFS},
			}},
		}
	default:
		return nil, fmt.Errorf("job: unknown profile kind %q", key.kind)
	}

	if key.maxN > 0 {
		// The application asks for its maximum halfway through and shrinks
		// back near the end, modelling an AMR-style load curve.
		grow := s.model(fmt.Sprintf("%d", key.maxN))
		shrink := s.model(fmt.Sprintf("%d", key.minN))
		model := s.model(fmt.Sprintf(
			"iteration < %d ? (%s) : (iteration >= %d ? (%s) : num_nodes)",
			max(1, iters/2), grow.String(), iters-max(1, iters/10), shrink.String()))
		for pi := range phases {
			if phases[pi].SchedulingPoint {
				body := phases[pi].Tasks
				phases[pi].Tasks = append([]Task{{Kind: TaskEvolvingRequest, Model: model, Name: "evolve"}}, body...)
				break
			}
		}
	}
	return &Application{Phases: phases}, nil
}
