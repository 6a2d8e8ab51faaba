package telemetry

import (
	"bufio"
	"encoding/json"
	"io"
)

// AuditDecision is one scheduler decision at one scheduling point, with
// the outcome of applying it to the simulation state.
type AuditDecision struct {
	Kind     string `json:"kind"`
	Job      int    `json:"job"`
	NumNodes int    `json:"num_nodes,omitempty"`
	Applied  bool   `json:"applied"`
	Reason   string `json:"reason,omitempty"` // rejection reason when !Applied
}

// AuditRecord captures the full context of one scheduler invocation:
// what the scheduler saw (queue depth, free/down nodes, trigger reasons)
// and what it decided.
type AuditRecord struct {
	T          float64         `json:"t"`
	Invocation uint64          `json:"invocation"`
	Reasons    string          `json:"reasons"`
	QueueDepth int             `json:"queue_depth"`
	Running    int             `json:"running"`
	FreeNodes  int             `json:"free_nodes"`
	DownNodes  int             `json:"down_nodes,omitempty"`
	Decisions  []AuditDecision `json:"decisions,omitempty"`
}

// AuditLog streams scheduler invocation records as JSON lines.
type AuditLog struct {
	w   *bufio.Writer
	enc *json.Encoder
	err error
}

// NewAuditLog writes audit records to w; the caller keeps ownership of w.
func NewAuditLog(w io.Writer) *AuditLog {
	bw := bufio.NewWriter(w)
	return &AuditLog{w: bw, enc: json.NewEncoder(bw)}
}

// Record appends one scheduler invocation record. Nil-safe.
func (a *AuditLog) Record(rec AuditRecord) {
	if a == nil || a.err != nil {
		return
	}
	if err := a.enc.Encode(rec); err != nil {
		a.err = err
	}
}

// Err returns the first write error, if any.
func (a *AuditLog) Err() error {
	if a == nil {
		return nil
	}
	return a.err
}

// Close flushes the log; the underlying writer stays open.
func (a *AuditLog) Close() error {
	if a == nil {
		return nil
	}
	if err := a.w.Flush(); err != nil && a.err == nil {
		a.err = err
	}
	return a.err
}
