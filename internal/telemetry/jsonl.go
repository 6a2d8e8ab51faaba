package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// JSONLEvent is the line-delimited JSON wire form of an Event. Args become
// a flat object so the stream is greppable/jq-able.
type JSONLEvent struct {
	T     float64        `json:"t"`
	Ph    string         `json:"ph"`
	Track string         `json:"track"`
	Name  string         `json:"name"`
	Args  map[string]any `json:"args,omitempty"`
}

// JSONLSink streams events as one JSON object per line.
type JSONLSink struct {
	w   *bufio.Writer
	enc *json.Encoder
	err error
}

// NewJSONLSink writes events to w; the caller keeps ownership of w.
func NewJSONLSink(w io.Writer) *JSONLSink {
	bw := bufio.NewWriter(w)
	return &JSONLSink{w: bw, enc: json.NewEncoder(bw)}
}

// Emit writes one event line.
func (s *JSONLSink) Emit(ev Event) {
	if s.err != nil {
		return
	}
	line := JSONLEvent{T: ev.T, Ph: string(ev.Phase), Track: ev.Track.String(), Name: ev.Name}
	if len(ev.Args) > 0 {
		line.Args = make(map[string]any, len(ev.Args))
		for _, a := range ev.Args {
			line.Args[a.Key] = a.Value
		}
	}
	if err := s.enc.Encode(line); err != nil {
		s.err = err
	}
}

// Err returns the first write error, if any.
func (s *JSONLSink) Err() error { return s.err }

// Close flushes the stream; the underlying writer stays open.
func (s *JSONLSink) Close() error {
	if err := s.w.Flush(); err != nil && s.err == nil {
		s.err = err
	}
	return s.err
}

// ReadJSONL parses a JSONL trace stream back into events.
func ReadJSONL(r io.Reader) ([]JSONLEvent, error) {
	var out []JSONLEvent
	dec := json.NewDecoder(r)
	for {
		var ev JSONLEvent
		if err := dec.Decode(&ev); err == io.EOF {
			return out, nil
		} else if err != nil {
			return out, fmt.Errorf("telemetry: trace line %d: %w", len(out)+1, err)
		}
		out = append(out, ev)
	}
}

// JobSpanSummary aggregates the span time of one job track: how long it
// waited, ran, and spent reconfiguring, plus event counts.
type JobSpanSummary struct {
	Job         int
	Wait        float64
	Run         float64
	Reconfigure float64
	Tasks       int
	SchedPoints int
	Reconfigs   int
	Checkpoints int
	FirstT      float64
	LastT       float64
}

// SummarizeJobSpans folds a JSONL trace into per-job wait/run/reconfigure
// totals, returned in job-id order. Open spans are closed at the last
// timestamp seen on the job's track.
func SummarizeJobSpans(events []JSONLEvent) []JobSpanSummary {
	type openSpans struct {
		wait, run, reconf float64 // begin timestamps; -1 = closed
	}
	sums := map[int]*JobSpanSummary{}
	open := map[int]*openSpans{}
	get := func(track string) (*JobSpanSummary, *openSpans) {
		var id int
		if _, err := fmt.Sscanf(track, "job:%d", &id); err != nil {
			return nil, nil
		}
		s := sums[id]
		if s == nil {
			s = &JobSpanSummary{Job: id, FirstT: -1}
			sums[id] = s
			open[id] = &openSpans{wait: -1, run: -1, reconf: -1}
		}
		return s, open[id]
	}
	for _, ev := range events {
		s, o := get(ev.Track)
		if s == nil {
			continue
		}
		if s.FirstT < 0 {
			s.FirstT = ev.T
		}
		if ev.T > s.LastT {
			s.LastT = ev.T
		}
		switch {
		case ev.Ph == "B" && ev.Name == "wait":
			o.wait = ev.T
		case ev.Ph == "E" && ev.Name == "wait":
			if o.wait >= 0 {
				s.Wait += ev.T - o.wait
				o.wait = -1
			}
		case ev.Ph == "B" && ev.Name == "run":
			o.run = ev.T
		case ev.Ph == "E" && ev.Name == "run":
			if o.run >= 0 {
				s.Run += ev.T - o.run
				o.run = -1
			}
		case ev.Ph == "B" && ev.Name == "reconfigure":
			o.reconf = ev.T
		case ev.Ph == "E" && ev.Name == "reconfigure":
			if o.reconf >= 0 {
				s.Reconfigure += ev.T - o.reconf
				s.Reconfigs++
				o.reconf = -1
			}
		case ev.Ph == "B" && ev.Name == "task":
			s.Tasks++
		case ev.Ph == "i" && ev.Name == "scheduling-point":
			s.SchedPoints++
		case ev.Ph == "i" && ev.Name == "checkpoint":
			s.Checkpoints++
		}
	}
	out := make([]JobSpanSummary, 0, len(sums))
	for id, s := range sums {
		o := open[id]
		if o.wait >= 0 {
			s.Wait += s.LastT - o.wait
		}
		if o.run >= 0 {
			s.Run += s.LastT - o.run
		}
		if o.reconf >= 0 {
			s.Reconfigure += s.LastT - o.reconf
		}
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Job < out[j].Job })
	return out
}
