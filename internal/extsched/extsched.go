// Package extsched bridges the simulator to out-of-process scheduling
// algorithms, mirroring the decoupled algorithm interface of the original
// system (which speaks ZeroMQ to a Python process). Here the protocol is
// line-delimited JSON over the child's stdin/stdout, so algorithms can be
// written in any language without linking against the simulator:
//
//	simulator -> algorithm   {"type":"invoke", "now":..., "pending":[...],
//	                          "running":[...], "free_nodes":n, "total_nodes":n,
//	                          "reasons":"submit+completion"}
//	algorithm -> simulator   {"type":"decisions", "decisions":[
//	                          {"kind":"start","job":3,"num_nodes":8}, ...]}
//	simulator -> algorithm   {"type":"end"}        (once, at shutdown)
//
// Decision kinds: "start", "resize", "grant", "deny", "kill". Job views
// carry everything an algorithm needs: flexibility class, node bounds
// ("min_nodes", "max_nodes") and the requested size ("num_nodes", absent
// when the job states no preference), current allocation, scheduling-point
// and evolving-request state, and the walltime-derived expected end
// (absent when unknown). A peer that reads no "num_nodes" sees a non-rigid
// job's request as its minimum.
package extsched

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"repro/internal/job"
	"repro/internal/sched"
)

// jobViewMsg is the wire form of sched.JobView.
type jobViewMsg struct {
	ID                int      `json:"id"`
	Name              string   `json:"name"`
	Type              job.Type `json:"type"`
	State             string   `json:"state"`
	Nodes             int      `json:"nodes,omitempty"`
	MinNodes          int      `json:"min_nodes"`
	MaxNodes          int      `json:"max_nodes"`
	NumNodes          int      `json:"num_nodes,omitempty"`
	WallTime          float64  `json:"walltime,omitempty"`
	SubmitTime        float64  `json:"submit_time"`
	StartTime         float64  `json:"start_time,omitempty"`
	ExpectedEnd       *float64 `json:"expected_end,omitempty"`
	AtSchedulingPoint bool     `json:"at_scheduling_point,omitempty"`
	EvolvingRequest   int      `json:"evolving_request,omitempty"`
}

func viewMsg(v *sched.JobView) jobViewMsg {
	m := jobViewMsg{
		ID:         int(v.ID),
		Name:       v.Job.Label(),
		Type:       v.Type,
		MinNodes:   v.MinNodes,
		MaxNodes:   v.MaxNodes,
		NumNodes:   v.ReqNodes,
		SubmitTime: v.SubmitTime,
	}
	if !math.IsInf(v.WallTime, 1) {
		m.WallTime = v.WallTime
	}
	switch v.State {
	case sched.StatePending:
		m.State = "pending"
	default:
		m.State = "running"
		m.Nodes = v.Nodes
		m.StartTime = v.StartTime
		m.AtSchedulingPoint = v.AtSchedulingPoint
		m.EvolvingRequest = v.EvolvingRequest
		if !math.IsInf(v.ExpectedEnd, 1) {
			end := v.ExpectedEnd
			m.ExpectedEnd = &end
		}
	}
	return m
}

// invokeMsg is one scheduler invocation on the wire.
type invokeMsg struct {
	Type       string       `json:"type"` // "invoke"
	Now        float64      `json:"now"`
	Reasons    string       `json:"reasons"`
	Pending    []jobViewMsg `json:"pending"`
	Running    []jobViewMsg `json:"running"`
	FreeNodes  int          `json:"free_nodes"`
	TotalNodes int          `json:"total_nodes"`
}

// decisionMsg is one decision on the wire.
type decisionMsg struct {
	Kind     string `json:"kind"`
	Job      int    `json:"job"`
	NumNodes int    `json:"num_nodes,omitempty"`
}

// responseMsg is the algorithm's answer.
type responseMsg struct {
	Type      string        `json:"type"` // "decisions"
	Decisions []decisionMsg `json:"decisions"`
	// Error lets the algorithm report a failure explicitly.
	Error string `json:"error,omitempty"`
}

// endMsg terminates the session.
type endMsg struct {
	Type string `json:"type"` // "end"
}

// ParseDecisionKind maps a wire kind to the sched constant.
func ParseDecisionKind(kind string) (sched.DecisionKind, error) {
	switch kind {
	case "start":
		return sched.DecisionStart, nil
	case "resize":
		return sched.DecisionResize, nil
	case "grant":
		return sched.DecisionGrant, nil
	case "deny":
		return sched.DecisionDeny, nil
	case "kill":
		return sched.DecisionKill, nil
	default:
		return 0, fmt.Errorf("extsched: unknown decision kind %q", kind)
	}
}

// KindName maps a sched decision kind to its wire name.
func KindName(k sched.DecisionKind) string {
	switch k {
	case sched.DecisionStart:
		return "start"
	case sched.DecisionResize:
		return "resize"
	case sched.DecisionGrant:
		return "grant"
	case sched.DecisionDeny:
		return "deny"
	case sched.DecisionKill:
		return "kill"
	default:
		return fmt.Sprintf("kind%d", int(k))
	}
}

// Bridge adapts a JSON-over-stream peer to the sched.Algorithm interface.
// It is synchronous: every Schedule call sends one invoke message and
// blocks for one response. Protocol failures poison the bridge: further
// invocations return no decisions and Err reports the cause (the engine
// then surfaces a deadlock error instead of hanging forever).
type Bridge struct {
	name string
	enc  *json.Encoder
	dec  *json.Decoder
	err  error
}

// NewBridge wraps a connected peer (its output, our input).
func NewBridge(name string, from io.Reader, to io.Writer) *Bridge {
	return &Bridge{
		name: name,
		enc:  json.NewEncoder(to),
		dec:  json.NewDecoder(from),
	}
}

// Name implements sched.Algorithm.
func (b *Bridge) Name() string { return b.name }

// Err returns the first protocol error, if any.
func (b *Bridge) Err() error { return b.err }

// Schedule implements sched.Algorithm.
func (b *Bridge) Schedule(inv *sched.Invocation) []sched.Decision {
	if b.err != nil {
		return nil
	}
	msg := invokeMsg{
		Type:       "invoke",
		Now:        inv.Now,
		Reasons:    inv.Reasons.String(),
		Pending:    make([]jobViewMsg, 0, len(inv.Pending)),
		Running:    make([]jobViewMsg, 0, len(inv.Running)),
		FreeNodes:  inv.FreeNodes,
		TotalNodes: inv.TotalNodes,
	}
	for _, v := range inv.Pending {
		msg.Pending = append(msg.Pending, viewMsg(v))
	}
	for _, v := range inv.Running {
		msg.Running = append(msg.Running, viewMsg(v))
	}
	if err := b.enc.Encode(&msg); err != nil {
		b.err = fmt.Errorf("extsched: sending invocation: %w", err)
		return nil
	}
	var resp responseMsg
	if err := b.dec.Decode(&resp); err != nil {
		b.err = fmt.Errorf("extsched: reading response: %w", err)
		return nil
	}
	if resp.Error != "" {
		b.err = fmt.Errorf("extsched: algorithm error: %s", resp.Error)
		return nil
	}
	if resp.Type != "decisions" {
		b.err = fmt.Errorf("extsched: unexpected response type %q", resp.Type)
		return nil
	}
	out := make([]sched.Decision, 0, len(resp.Decisions))
	for _, d := range resp.Decisions {
		kind, err := ParseDecisionKind(d.Kind)
		if err != nil {
			b.err = err
			return nil
		}
		out = append(out, sched.Decision{Kind: kind, Job: job.ID(d.Job), NumNodes: d.NumNodes})
	}
	return out
}

// Close tells the peer the session is over. Safe after errors.
func (b *Bridge) Close() error {
	if b.err != nil {
		return b.err
	}
	return b.enc.Encode(&endMsg{Type: "end"})
}

// Serve runs the peer side of the protocol: it reads invocations from
// `from`, asks algo for decisions, and writes them to `to`, until an "end"
// message or EOF. It is the building block for writing external
// schedulers in Go (and doubles as the reference implementation of the
// peer protocol).
func Serve(algo sched.Algorithm, from io.Reader, to io.Writer) error {
	dec := json.NewDecoder(from)
	enc := json.NewEncoder(to)
	for {
		var raw struct {
			Type string `json:"type"`
			invokeMsg
		}
		if err := dec.Decode(&raw); err != nil {
			if err == io.EOF {
				return nil
			}
			return fmt.Errorf("extsched: serve decode: %w", err)
		}
		switch raw.Type {
		case "end":
			return nil
		case "invoke":
			inv := invocationFromMsg(&raw.invokeMsg)
			decisions := algo.Schedule(inv)
			resp := responseMsg{Type: "decisions", Decisions: make([]decisionMsg, 0, len(decisions))}
			for _, d := range decisions {
				resp.Decisions = append(resp.Decisions, decisionMsg{
					Kind: KindName(d.Kind), Job: int(d.Job), NumNodes: d.NumNodes,
				})
			}
			if err := enc.Encode(&resp); err != nil {
				return fmt.Errorf("extsched: serve encode: %w", err)
			}
		default:
			return fmt.Errorf("extsched: serve: unexpected message type %q", raw.Type)
		}
	}
}

// invocationFromMsg reconstructs an Invocation on the peer side. The Job
// descriptions are skeletons carrying only scheduling-relevant fields
// (type, node bounds, requested size, walltime); application models do
// not cross the wire.
func invocationFromMsg(m *invokeMsg) *sched.Invocation {
	inv := &sched.Invocation{
		Now:        m.Now,
		FreeNodes:  m.FreeNodes,
		TotalNodes: m.TotalNodes,
	}
	for i := range m.Pending {
		inv.Pending = append(inv.Pending, viewFromMsg(&m.Pending[i]))
	}
	for i := range m.Running {
		inv.Running = append(inv.Running, viewFromMsg(&m.Running[i]))
	}
	return inv
}

func viewFromMsg(m *jobViewMsg) *sched.JobView {
	j := &job.Job{
		ID:            job.ID(m.ID),
		Name:          m.Name,
		Type:          m.Type,
		SubmitTime:    m.SubmitTime,
		WallTimeLimit: m.WallTime,
	}
	if m.Type == job.Rigid {
		j.NumNodes = m.MinNodes
	} else {
		j.NumNodesMin = m.MinNodes
		j.NumNodesMax = m.MaxNodes
		j.NumNodes = m.NumNodes
	}
	v := sched.NewJobView(j)
	v.Nodes = m.Nodes
	v.StartTime = m.StartTime
	v.AtSchedulingPoint = m.AtSchedulingPoint
	v.EvolvingRequest = m.EvolvingRequest
	v.ExpectedEnd = math.Inf(1)
	if m.State == "pending" {
		v.State = sched.StatePending
	} else {
		v.State = sched.StateRunning
	}
	if m.ExpectedEnd != nil {
		v.ExpectedEnd = *m.ExpectedEnd
	}
	return &v
}
