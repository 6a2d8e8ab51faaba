package jobqueue

import (
	"bytes"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestQueueMetrics drives a journaled queue through submit, claim, lease
// expiry, reclaim, heartbeat, and both terminal outcomes, and checks the
// exposition reflects every transition — including the journal fsync
// histogram, which must have observed one sample per journaled record.
func TestQueueMetrics(t *testing.T) {
	now := time.Unix(1000, 0)
	reg := obs.NewRegistry()
	flight := obs.NewFlightRecorder(64)
	q, err := Open(filepath.Join(t.TempDir(), "journal.jsonl"), Options{
		Lease:   time.Minute,
		Now:     func() time.Time { return now },
		Metrics: reg,
		Flight:  flight,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()

	a, _ := q.Submit([]byte(`{"a":1}`))
	b, _ := q.Submit([]byte(`{"b":2}`))

	if _, ok := tryClaim(q, "w1"); !ok {
		t.Fatal("claim failed")
	}
	// Lose the lease: the job returns to pending and the expiry counts.
	now = now.Add(2 * time.Minute)
	if n := q.ExpireLeases(); n != 1 {
		t.Fatalf("expired %d leases, want 1", n)
	}
	// Reclaim and finish one job each way.
	j, ok := tryClaim(q, "w2")
	if !ok || j.ID != a.ID {
		t.Fatalf("reclaim = (%v, %v), want job %s", j.ID, ok, a.ID)
	}
	if err := q.MarkRunning(j.ID, "w2"); err != nil {
		t.Fatal(err)
	}
	if err := q.HeartbeatBatch("w2", []string{j.ID})[0]; err != nil {
		t.Fatal(err)
	}
	if err := finish(q, j.ID, "w2", "artifacts/a", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Cancel(b.ID); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"elastisimd_tasks_submitted_total 2",
		"elastisimd_task_claims_total 2",
		"elastisimd_lease_expirations_total 1",
		"elastisimd_heartbeats_total 1",
		`elastisimd_tasks_finished_total{state="done"} 1`,
		`elastisimd_tasks_finished_total{state="cancelled"} 1`,
		`elastisimd_tasks{state="done"} 1`,
		`elastisimd_tasks{state="cancelled"} 1`,
		`elastisimd_tasks{state="pending"} 0`,
		"elastisimd_journal_fsync_seconds_count",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
	if _, err := obs.ValidateExposition(strings.NewReader(text)); err != nil {
		t.Errorf("queue exposition invalid: %v", err)
	}
	// One fsync observation per journaled transition: 2 submits, 2 claims,
	// 1 expiry, 1 running, 1 done, 1 cancel. (Heartbeats only renew the
	// lease and are not journaled.)
	if n := histCount(t, text, "elastisimd_journal_fsync_seconds_count"); n != 8 {
		t.Errorf("journal fsync count = %d, want 8", n)
	}
	if flight.Total() < 8 {
		t.Errorf("flight recorded %d transitions, want >= 8", flight.Total())
	}
}

// histCount extracts the integer value of a _count sample line.
func histCount(t *testing.T, text, name string) int {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, name+" ") {
			n, err := strconv.Atoi(strings.TrimSpace(line[len(name)+1:]))
			if err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			return n
		}
	}
	t.Fatalf("no %s sample in exposition", name)
	return 0
}
