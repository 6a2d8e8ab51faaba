package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from outside it.
type span struct {
	Name       string
	Start, End time.Duration // offsets from the log's epoch
	Parent     int           // index of the span that caused this one, -1 for a root
	Op         int           // spans of one op share it
}

// spanLog keeps the traced pass's spans in memory until the benchmark
// ends. A nil *spanLog records nothing, so the untraced pass runs the same
// code without the cost.
type spanLog struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// add records a finished span and returns its index.
func (l *spanLog) add(name string, parent, op int, start, end time.Time) int {
	if l == nil {
		return -1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{Name: name, Start: start.Sub(l.epoch), End: end.Sub(l.epoch), Parent: parent, Op: op})
	return len(l.spans) - 1
}

// begin opens a span whose children need its index before it ends.
func (l *spanLog) begin(name string, parent, op int) int {
	now := time.Now()
	return l.add(name, parent, op, now, now)
}

func (l *spanLog) end(id int) {
	if l == nil {
		return
	}
	now := time.Since(l.epoch)
	l.mu.Lock()
	l.spans[id].End = now
	l.mu.Unlock()
}

// selfTimes returns, per span, its duration minus the part of that
// interval its child spans cover (children may run concurrently, so the
// covered part is the union of their intervals clipped to the parent).
func (l *spanLog) selfTimes() []time.Duration {
	children := make([][]int, len(l.spans))
	for i, s := range l.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(l.spans))
	for i, s := range l.spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return l.spans[kids[a]].Start < l.spans[kids[b]].Start })
		covered, edge := time.Duration(0), s.Start
		for _, k := range kids {
			from, to := max(l.spans[k].Start, edge), min(l.spans[k].End, s.End)
			if to > from {
				covered += to - from
				edge = to
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// durationsOf lists the durations of every span with the given name.
func (l *spanLog) durationsOf(name string) []time.Duration {
	var out []time.Duration
	for _, s := range l.spans {
		if s.Name == name {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// chromeEvent is one Chrome trace_event record (load the file in Perfetto
// or chrome://tracing).
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// chromeEvents renders the log as one process named after its workload:
// a complete event per span, a track per op, and the causing span and the
// self time as arguments.
func (l *spanLog) chromeEvents(pid int, process string) []chromeEvent {
	self := l.selfTimes()
	events := []chromeEvent{{Name: "process_name", Ph: "M", Pid: pid, Args: map[string]any{"name": process}}}
	for i, s := range l.spans {
		events = append(events, chromeEvent{
			Name: s.Name, Ph: "X", Ts: micros(s.Start), Dur: micros(s.End - s.Start), Pid: pid, Tid: s.Op,
			Args: map[string]any{"id": i, "parent": s.Parent, "self_us": micros(self[i])},
		})
	}
	return events
}
