package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Track-kind → Chrome process id. Every job is a thread of the "jobs"
// process, every node a thread of the "nodes" process, and the scheduler a
// single thread of its own process, so Perfetto groups the timelines the
// way a human reads a batch schedule.
const (
	chromePidJobs      = 1
	chromePidNodes     = 2
	chromePidScheduler = 3
)

func chromePid(k TrackKind) int {
	switch k {
	case TrackJob:
		return chromePidJobs
	case TrackNode:
		return chromePidNodes
	default:
		return chromePidScheduler
	}
}

func chromeProcessName(k TrackKind) string {
	switch k {
	case TrackJob:
		return "jobs"
	case TrackNode:
		return "nodes"
	default:
		return "scheduler"
	}
}

// ChromeSink streams events in the Chrome trace_event JSON array format.
// The output loads in Perfetto (ui.perfetto.dev) and chrome://tracing.
// Timestamps are simulated microseconds.
type ChromeSink struct {
	w        *bufio.Writer
	n        int // events written, to place commas
	seenPid  map[int]bool
	seenTrak map[Track]bool
	err      error
}

// NewChromeSink writes the trace to w. The caller keeps ownership of w;
// Close flushes but does not close it.
func NewChromeSink(w io.Writer) *ChromeSink {
	return &ChromeSink{w: bufio.NewWriter(w), seenPid: map[int]bool{}, seenTrak: map[Track]bool{}}
}

func (s *ChromeSink) writeEvent(raw string) {
	if s.err != nil {
		return
	}
	var err error
	if s.n == 0 {
		_, err = s.w.WriteString("[\n" + raw)
	} else {
		_, err = s.w.WriteString(",\n" + raw)
	}
	s.n++
	if err != nil {
		s.err = err
	}
}

// metadata emits the process_name / thread_name metadata events the first
// time a pid or track appears.
func (s *ChromeSink) metadata(tr Track) {
	pid := chromePid(tr.Kind)
	if !s.seenPid[pid] {
		s.seenPid[pid] = true
		s.writeEvent(fmt.Sprintf(
			`{"name":"process_name","ph":"M","pid":%d,"tid":0,"args":{"name":%q}}`,
			pid, chromeProcessName(tr.Kind)))
	}
	if !s.seenTrak[tr] {
		s.seenTrak[tr] = true
		name := fmt.Sprintf("%s %d", tr.Kind, tr.ID)
		if tr.Kind == TrackScheduler {
			name = "scheduler"
		}
		s.writeEvent(fmt.Sprintf(
			`{"name":"thread_name","ph":"M","pid":%d,"tid":%d,"args":{"name":%q}}`,
			pid, tr.ID, name))
	}
}

// Emit writes one event.
func (s *ChromeSink) Emit(ev Event) {
	if s.err != nil {
		return
	}
	s.metadata(ev.Track)
	pid := chromePid(ev.Track.Kind)
	ts := ev.T * 1e6 // seconds → microseconds
	raw := fmt.Sprintf(`{"name":%q,"ph":%q,"ts":%s,"pid":%d,"tid":%d`,
		ev.Name, string(ev.Phase), formatTS(ts), pid, ev.Track.ID)
	if ev.Phase == PhaseInstant {
		raw += `,"s":"t"` // thread-scoped instant
	}
	if len(ev.Args) > 0 {
		raw += `,"args":` + marshalArgs(ev.Args)
	}
	raw += "}"
	s.writeEvent(raw)
}

// formatTS renders a microsecond timestamp without exponent notation so
// every JSON parser (and eyeball) reads it the same way.
func formatTS(us float64) string {
	return trimZeros(fmt.Sprintf("%.3f", us))
}

func trimZeros(s string) string {
	i := len(s)
	for i > 0 && s[i-1] == '0' {
		i--
	}
	if i > 0 && s[i-1] == '.' {
		i--
	}
	return s[:i]
}

// marshalArgs renders the args as a JSON object in key order.
func marshalArgs(args []Arg) string {
	out := "{"
	for i, a := range args {
		if i > 0 {
			out += ","
		}
		v, err := json.Marshal(a.Value)
		if err != nil {
			v = []byte(fmt.Sprintf("%q", fmt.Sprint(a.Value)))
		}
		out += fmt.Sprintf("%q:%s", a.Key, v)
	}
	return out + "}"
}

// Err returns the first write error, if any.
func (s *ChromeSink) Err() error { return s.err }

// Close terminates the JSON array and flushes.
func (s *ChromeSink) Close() error {
	if s.err == nil {
		if s.n == 0 {
			_, s.err = s.w.WriteString("[")
		}
		if s.err == nil {
			_, s.err = s.w.WriteString("\n]\n")
		}
	}
	if err := s.w.Flush(); err != nil && s.err == nil {
		s.err = err
	}
	return s.err
}

// chromeEvent is the decoded form ValidateChromeTrace checks.
type chromeEvent struct {
	Name string          `json:"name"`
	Ph   string          `json:"ph"`
	TS   *float64        `json:"ts"`
	Pid  *int            `json:"pid"`
	Tid  *int            `json:"tid"`
	Args json.RawMessage `json:"args"`
}

// TrackKey identifies one Chrome trace timeline.
type TrackKey struct {
	Pid, Tid int
}

// TrackBounds is the timestamp envelope of one timeline, in microseconds.
type TrackBounds struct {
	FirstTS, LastTS float64
	Events          int
	Spans           int // completed begin/end pairs
	OpenSpans       int // begins without a matching end
}

// ChromeTraceStats summarizes a validated trace.
type ChromeTraceStats struct {
	Events int
	Tracks map[TrackKey]*TrackBounds
}

// ValidateChromeTrace machine-checks a Chrome trace_event JSON document:
// it must parse as an event array, every event needs name/ph (and ts, pid,
// tid for non-metadata phases), timestamps must be non-decreasing per
// (pid, tid) track, and begin/end spans must nest. It returns per-track
// statistics so callers can additionally assert coverage.
func ValidateChromeTrace(data []byte) (*ChromeTraceStats, error) {
	var events []chromeEvent
	if err := json.Unmarshal(data, &events); err != nil {
		return nil, fmt.Errorf("telemetry: trace is not a JSON event array: %w", err)
	}
	stats := &ChromeTraceStats{Tracks: map[TrackKey]*TrackBounds{}}
	depth := map[TrackKey]int{}
	for i, ev := range events {
		if ev.Name == "" || ev.Ph == "" {
			return nil, fmt.Errorf("telemetry: event %d missing name or ph", i)
		}
		if ev.Ph == "M" {
			continue // metadata carries no timestamp
		}
		if ev.TS == nil || ev.Pid == nil || ev.Tid == nil {
			return nil, fmt.Errorf("telemetry: event %d (%s %q) missing ts/pid/tid", i, ev.Ph, ev.Name)
		}
		key := TrackKey{Pid: *ev.Pid, Tid: *ev.Tid}
		tb := stats.Tracks[key]
		if tb == nil {
			tb = &TrackBounds{FirstTS: *ev.TS, LastTS: *ev.TS}
			stats.Tracks[key] = tb
		}
		if *ev.TS < tb.LastTS {
			return nil, fmt.Errorf("telemetry: event %d (%s %q) goes back in time on track pid=%d tid=%d: ts %g < %g",
				i, ev.Ph, ev.Name, key.Pid, key.Tid, *ev.TS, tb.LastTS)
		}
		tb.LastTS = *ev.TS
		tb.Events++
		stats.Events++
		switch ev.Ph {
		case "B":
			depth[key]++
		case "E":
			if depth[key] == 0 {
				return nil, fmt.Errorf("telemetry: event %d: end %q without open span on pid=%d tid=%d",
					i, ev.Name, key.Pid, key.Tid)
			}
			depth[key]--
			tb.Spans++
		case "i", "C":
			// instants and counters have no pairing constraint
		default:
			return nil, fmt.Errorf("telemetry: event %d has unknown phase %q", i, ev.Ph)
		}
	}
	for key, d := range depth {
		if d > 0 {
			stats.Tracks[key].OpenSpans = d
		}
	}
	return stats, nil
}

// SortedTrackKeys returns the track keys in (pid, tid) order, for
// deterministic reporting.
func (s *ChromeTraceStats) SortedTrackKeys() []TrackKey {
	keys := make([]TrackKey, 0, len(s.Tracks))
	for k := range s.Tracks {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Pid != keys[j].Pid {
			return keys[i].Pid < keys[j].Pid
		}
		return keys[i].Tid < keys[j].Tid
	})
	return keys
}

// JobTrackKey maps a job id to its Chrome track key.
func JobTrackKey(job int) TrackKey { return TrackKey{Pid: chromePidJobs, Tid: job} }

// NodeTrackKey maps a node id to its Chrome track key.
func NodeTrackKey(node int) TrackKey { return TrackKey{Pid: chromePidNodes, Tid: node} }
