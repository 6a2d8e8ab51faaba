package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/elastisim"
	"repro/internal/jobqueue"
)

// tracedDoc asks a config document for the event log, task events
// included.
func tracedDoc(doc string) string {
	return strings.TrimSuffix(doc, "}") + `,
  "options": {"trace": true, "trace_tasks": true}
}`
}

// directTrace runs doc in-process, for its first events kernel events
// (0 = to the end), and returns the records its event log produced as
// json.Encoder with SetIndent("", "  ") encodes them — the reference the
// daemon's streamed trace.json must match.
func directTrace(t *testing.T, doc string, events uint64) []byte {
	t.Helper()
	cfg, err := elastisim.ParseConfig([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	var log []elastisim.TraceEvent
	cfg.Options.Trace = func(ev elastisim.TraceEvent) { log = append(log, ev) }
	s, err := elastisim.NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if events == 0 {
		_, err = s.Run(context.Background())
	} else {
		_, err = s.Step(int(events))
	}
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Result(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(log); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTraceArtifact pins the daemon's streamed trace.json: byte for byte
// the encoding of the records an in-process run of the same config
// collects, for a run to completion and for one cancelled mid-run (up to
// the cancel), and absent for an untraced config.
func TestTraceArtifact(t *testing.T) {
	_, ts := testServer(t, "", 1)

	t.Run("done", func(t *testing.T) {
		doc := tracedDoc(fastConfigDoc)
		id := submit(t, ts, doc)
		waitState(t, ts, id, jobqueue.StateDone)
		code, got := fetch(t, ts, "/v1/sessions/"+id+"/trace")
		if code != http.StatusOK {
			t.Fatalf("trace: status %d: %s", code, got)
		}
		if want := directTrace(t, doc, 0); !bytes.Equal(got, want) {
			t.Errorf("trace.json (%d bytes) differs from the in-process log (%d bytes)", len(got), len(want))
		}
	})

	t.Run("cancelled", func(t *testing.T) {
		doc := tracedDoc(slowConfigDoc)
		id := submit(t, ts, doc)
		// Cancel once events have fired, so the log is cut mid-stream.
		deadline := time.Now().Add(30 * time.Second)
		for v := getView(t, ts, id); v.Peek == nil || v.Peek.Events == 0; v = getView(t, ts, id) {
			if v.State.Terminal() || time.Now().After(deadline) {
				t.Fatalf("job %s is %s before any event fired", id, v.State)
			}
			time.Sleep(2 * time.Millisecond)
		}
		if code, body := post(t, ts, "/v1/sessions/"+id+"/cancel"); code != http.StatusAccepted && code != http.StatusOK {
			t.Fatalf("cancel: status %d: %s", code, body)
		}
		waitState(t, ts, id, jobqueue.StateCancelled)
		code, result := fetch(t, ts, "/v1/sessions/"+id+"/result")
		if code != http.StatusOK {
			t.Fatalf("partial result: status %d: %s", code, result)
		}
		var partial struct {
			Events uint64 `json:"events"`
			Abort  string `json:"abort"`
		}
		if err := json.Unmarshal(result, &partial); err != nil {
			t.Fatal(err)
		}
		if partial.Events == 0 || partial.Abort == elastisim.AbortDrained.String() {
			t.Fatalf("cancelled run fired %d events and ended %q, want cut mid-run", partial.Events, partial.Abort)
		}
		code, got := fetch(t, ts, "/v1/sessions/"+id+"/trace")
		if code != http.StatusOK {
			t.Fatalf("trace: status %d: %s", code, got)
		}
		if want := directTrace(t, doc, partial.Events); !bytes.Equal(got, want) {
			t.Errorf("trace.json (%d bytes) differs from the in-process log of the first %d events (%d bytes)", len(got), partial.Events, len(want))
		}
	})

	t.Run("untraced", func(t *testing.T) {
		id := submit(t, ts, fastConfigDoc)
		waitState(t, ts, id, jobqueue.StateDone)
		if code, body := fetch(t, ts, "/v1/sessions/"+id+"/trace"); code != http.StatusNotFound {
			t.Errorf("trace of an untraced run: status %d, want 404: %s", code, body)
		}
	})
}
