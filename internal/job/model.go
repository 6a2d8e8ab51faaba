package job

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"

	"repro/internal/expr"
)

func logf(x float64) float64    { return math.Log(x) }
func powf(a, b float64) float64 { return math.Pow(a, b) }

// Model is a performance model: it maps the evaluation environment (current
// allocation size, iteration number, job arguments, ...) to a magnitude.
//
// Two forms exist, mirroring ElastiSim's expression and vector models:
//
//   - expression models evaluate an arithmetic expression;
//   - vector models tabulate explicit values per node count, with
//     geometric interpolation between listed counts (costs in HPC scale
//     multiplicatively, so interpolation happens in log space).
type Model struct {
	expression *expr.Expr
	vector     []vectorEntry // sorted by nodes
}

type vectorEntry struct {
	nodes int
	value float64
}

// NewExprModel builds a model from expression source.
func NewExprModel(src string) (*Model, error) {
	e, err := expr.Compile(src)
	if err != nil {
		return nil, err
	}
	return &Model{expression: e}, nil
}

// MustExprModel is NewExprModel for sources known correct at build time.
func MustExprModel(src string) *Model {
	m, err := NewExprModel(src)
	if err != nil {
		panic(err)
	}
	return m
}

// ConstModel returns a model that always yields v.
func ConstModel(v float64) *Model {
	return &Model{expression: expr.Constant(v)}
}

// NewVectorModel builds a model from explicit (nodes -> value) points.
func NewVectorModel(points map[int]float64) (*Model, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("job: empty vector model")
	}
	m := &Model{}
	for n, v := range points {
		if n <= 0 {
			return nil, fmt.Errorf("job: vector model with non-positive node count %d", n)
		}
		if v < 0 {
			return nil, fmt.Errorf("job: vector model with negative value %v at %d nodes", v, n)
		}
		m.vector = append(m.vector, vectorEntry{nodes: n, value: v})
	}
	sort.Slice(m.vector, func(i, j int) bool { return m.vector[i].nodes < m.vector[j].nodes })
	return m, nil
}

// IsVector reports whether this is a vector model.
func (m *Model) IsVector() bool { return m.vector != nil }

// Eval computes the magnitude. numNodes must be the job's current
// allocation size; env supplies all expression variables (including
// num_nodes itself, for expression models).
func (m *Model) Eval(env expr.Env, numNodes int) (float64, error) {
	if m.expression != nil {
		return m.expression.Eval(env)
	}
	return m.evalVector(numNodes)
}

func (m *Model) evalVector(numNodes int) (float64, error) {
	if numNodes <= 0 {
		return 0, fmt.Errorf("job: vector model evaluated with %d nodes", numNodes)
	}
	v := m.vector
	// Exact hit or clamp to the ends.
	if numNodes <= v[0].nodes {
		return v[0].value, nil
	}
	if numNodes >= v[len(v)-1].nodes {
		return v[len(v)-1].value, nil
	}
	i := sort.Search(len(v), func(i int) bool { return v[i].nodes >= numNodes })
	if v[i].nodes == numNodes {
		return v[i].value, nil
	}
	lo, hi := v[i-1], v[i]
	// Geometric interpolation in node count.
	frac := (logf(float64(numNodes)) - logf(float64(lo.nodes))) /
		(logf(float64(hi.nodes)) - logf(float64(lo.nodes)))
	if lo.value == 0 || hi.value == 0 {
		// Degenerate: fall back to linear.
		return lo.value + frac*(hi.value-lo.value), nil
	}
	return lo.value * powf(hi.value/lo.value, frac), nil
}

// Validate checks that allowed accepts every expression variable. A vector
// model is valid if it has a point.
func (m *Model) Validate(allowed func(name string) bool) error {
	if m.expression != nil {
		return m.expression.Validate(allowed)
	}
	if len(m.vector) == 0 {
		return fmt.Errorf("job: empty model")
	}
	return nil
}

// String renders the model for diagnostics.
func (m *Model) String() string {
	if m.expression != nil {
		return m.expression.Source()
	}
	return fmt.Sprintf("vector(%d points)", len(m.vector))
}

// UnmarshalJSON accepts a number, an expression string, or an object
// {"<nodes>": value, ...} for vector models.
func (m *Model) UnmarshalJSON(data []byte) error {
	var num float64
	if err := json.Unmarshal(data, &num); err == nil {
		*m = *ConstModel(num)
		return nil
	}
	var s string
	if err := json.Unmarshal(data, &s); err == nil {
		built, err := NewExprModel(s)
		if err != nil {
			return err
		}
		*m = *built
		return nil
	}
	var table map[string]float64
	if err := json.Unmarshal(data, &table); err == nil {
		points := make(map[int]float64, len(table))
		for k, v := range table {
			n, err := strconv.Atoi(k)
			if err != nil {
				return fmt.Errorf("job: vector model key %q is not a node count", k)
			}
			points[n] = v
		}
		built, err := NewVectorModel(points)
		if err != nil {
			return err
		}
		*m = *built
		return nil
	}
	return fmt.Errorf("job: model must be a number, expression string, or vector object, got %s", data)
}

// MarshalJSON emits the canonical JSON form.
func (m *Model) MarshalJSON() ([]byte, error) {
	if m.expression != nil {
		return json.Marshal(m.expression.Source())
	}
	table := make(map[string]float64, len(m.vector))
	for _, e := range m.vector {
		table[strconv.Itoa(e.nodes)] = e.value
	}
	return json.Marshal(table)
}
