// Package distwork is the repository's work-distribution core: a
// payload-generic task store with lease+heartbeat claiming, a journaled
// (JSONL) lifecycle with compaction and torn-tail tolerance, and a
// fixed-size worker pool. It is the one machinery under both execution
// engines in the repo — the elastisimd job queue (internal/jobqueue
// names the json.RawMessage instantiation) and the distributed,
// resumable sweep grids of internal/experiments.
//
// The lifecycle is a small state machine:
//
//	pending ──claim──▶ claimed ──start──▶ running ◀─pause/resume─▶ paused
//	   ▲                  │                  │                        │
//	   └──lease expiry / release────────────┴───────┐                │
//	                                                 ▼                ▼
//	                                      done / failed / cancelled (terminal)
//
// Claims carry a lease: a worker that stops heartbeating (crashed, hung,
// killed) loses the task, which returns to pending for another worker —
// that re-claim is a *steal*, the mechanism behind both daemon crash
// recovery and straggler work-stealing in distributed sweeps. Every
// transition is journaled; Open replays the journal, requeues tasks that
// were mid-flight when the previous process died, keeps terminal tasks
// (and their result pointers) without re-running them, and compacts the
// journal to one line per task. A task with a journaled cancel request
// is settled as cancelled, never requeued. Every transition wakes the
// store's waiters; nothing polls.
package distwork

import (
	"container/heap"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"slices"
	"sync"
	"time"

	"repro/internal/obs"
)

// State is a task's lifecycle state.
type State string

// The task states. Pending tasks are claimable; claimed/running/paused
// tasks belong to a worker under a lease; done/failed/cancelled are
// terminal.
const (
	StatePending   State = "pending"
	StateClaimed   State = "claimed"
	StateRunning   State = "running"
	StatePaused    State = "paused"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// States lists every lifecycle state, in lifecycle order. Exported for
// consumers that enumerate per-state series (the /metrics exposition).
var States = []State{
	StatePending, StateClaimed, StateRunning, StatePaused,
	StateDone, StateFailed, StateCancelled,
}

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Active reports whether a worker currently owns the task.
func (s State) Active() bool {
	return s == StateClaimed || s == StateRunning || s == StatePaused
}

// Valid reports whether s is one of the defined states.
func (s State) Valid() bool {
	switch s {
	case StatePending, StateClaimed, StateRunning, StatePaused,
		StateDone, StateFailed, StateCancelled:
		return true
	}
	return false
}

// Sentinel errors for ownership failures, so transports (the HTTP lease
// API) can map them to status codes without string matching.
var (
	// ErrNotFound reports an unknown task id.
	ErrNotFound = errors.New("distwork: no such task")
	// ErrNotOwner reports a transition attempted by a worker that does not
	// hold the task's claim (stale lease, already settled, never claimed).
	ErrNotOwner = errors.New("distwork: task not owned by worker")
	// ErrClosed reports an operation on a closed store.
	ErrClosed = errors.New("distwork: store is closed")
	// ErrMetaMismatch reports a journal whose stored Options.Meta
	// fingerprint differs from the one Open was given.
	ErrMetaMismatch = errors.New("distwork: journal was written for a different work set")
)

// NotFoundError is the concrete ErrNotFound, carrying the id.
type NotFoundError struct{ ID string }

func (e *NotFoundError) Error() string { return fmt.Sprintf("distwork: no task %s", e.ID) }

// Unwrap makes errors.Is(err, ErrNotFound) true.
func (e *NotFoundError) Unwrap() error { return ErrNotFound }

// NotOwnerError is the concrete ErrNotOwner: the task's actual state and
// holder, plus the worker whose claim was rejected.
type NotOwnerError struct {
	ID       string
	State    State
	Worker   string // current holder ("" if unowned)
	Claimant string // the rejected worker
}

func (e *NotOwnerError) Error() string {
	return fmt.Sprintf("distwork: task %s is %s (worker %q), not owned by %q",
		e.ID, e.State, e.Worker, e.Claimant)
}

// Unwrap makes errors.Is(err, ErrNotOwner) true.
func (e *NotOwnerError) Unwrap() error { return ErrNotOwner }

// Task is one unit of work: a typed payload plus lifecycle bookkeeping.
// Methods on Store return copies; mutate only through the Store.
type Task[P any] struct {
	// ID is assigned by Submit (Options.IDPrefix + dense sequence number,
	// e.g. "t000001").
	ID string `json:"id"`
	// State is the current lifecycle state.
	State State `json:"state"`
	// Payload is the work description (for elastisimd, a combined
	// simulation document; for sweep grids, a cell spec).
	Payload P `json:"payload,omitempty"`
	// Submitted/Started/Finished are wall-clock transition times; Started
	// and Finished are zero until the transition happened.
	Submitted time.Time `json:"submitted"`
	Started   time.Time `json:"started"`
	Finished  time.Time `json:"finished"`
	// Worker names the claim holder while the task is active.
	Worker string `json:"worker,omitempty"`
	// Lease is when the current claim expires unless renewed by
	// Heartbeat. Expired claims are requeued.
	Lease time.Time `json:"lease,omitempty"`
	// Attempts counts claims, including requeues after lost leases.
	Attempts int `json:"attempts,omitempty"`
	// Error holds the failure message for failed tasks.
	Error string `json:"error,omitempty"`
	// Result is an opaque pointer to the task's outcome (an artifact
	// directory, an encoded result document), set by Finish.
	Result string `json:"result,omitempty"`
	// Note carries auxiliary lifecycle information, e.g. partial-progress
	// details journaled when a shutdown interrupted the task.
	Note string `json:"note,omitempty"`
	// CancelRequested records a Cancel accepted while the task was
	// active; see Store.Cancel.
	CancelRequested bool `json:"cancel_requested,omitempty"`
}

// Options tunes a Store.
type Options[P any] struct {
	// Lease is how long a claim stays valid without a heartbeat
	// (default 30s).
	Lease time.Duration
	// Now overrides the clock (tests).
	Now func() time.Time
	// Metrics, when set, receives the store's operational series: tasks by
	// state (callback gauges over the live store), submission/claim/steal/
	// lease counters, and journal fsync latency, compactions, and write
	// errors. Flight, when set, records every journaled state transition
	// into the crash flight recorder under the topic MetricPrefix. Both
	// nil (the default) detach observability at zero cost.
	Metrics *obs.Registry
	Flight  *obs.FlightRecorder
	// MetricPrefix names the series: "<prefix>_tasks",
	// "<prefix>_task_claims_total", ... (default "distwork"; the daemon
	// uses "elastisimd", sweep grids "sweep").
	MetricPrefix string
	// IDPrefix prefixes generated task ids (default "t").
	IDPrefix string
	// Deprecated: ignored; the journal is one file.
	Shards int
	// GroupCommit batches journal fsyncs: appends are flushed to the OS
	// per transition (a killed process loses nothing) but fsynced once
	// per window by a background syncer, amortizing the dominant
	// per-settlement cost. 0 fsyncs every append.
	GroupCommit time.Duration
	// Meta is an opaque fingerprint of the work set stored in the
	// journal's header. Open refuses a journal whose stored meta
	// differs (ErrMetaMismatch) — the guard that keeps a resumed sweep
	// from silently continuing a different grid.
	Meta string
	// Source, when set, feeds the task sequence lazily instead of
	// explicit Submits (which are then rejected): the store asks for the
	// payload of sequence number seq (1-based) on demand, and ok=false
	// ends the set. Pending source-fed tasks are reproducible from
	// (Source, seq) and so are not journaled — a task's first journal
	// record is its first claim — which is what makes a million-task
	// journal O(progress), not O(tasks). Claims hand out tasks in
	// sequence order, so after a crash everything past the highest
	// journaled sequence is simply re-fed.
	Source func(seq uint64) (P, bool)
	// Evict drops terminal tasks from memory once their record is
	// journaled (requires Open): the record becomes the only copy of the
	// result, and Each reads it back. The store keeps 16 bytes per
	// evicted task — the record's location and the final state — so a
	// stale worker's late transition still gets ErrNotOwner naming that
	// state, not ErrNotFound. A settlement the journal did not take stays
	// resident.
	Evict bool
}

func (o Options[P]) withDefaults() Options[P] {
	if o.Lease <= 0 {
		o.Lease = 30 * time.Second
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	if o.MetricPrefix == "" {
		o.MetricPrefix = "distwork"
	}
	if o.IDPrefix == "" {
		o.IDPrefix = "t"
	}
	return o
}

// seqHeap is the pending set: the sequence numbers of claimable tasks as
// a min-heap, so claims always pick the oldest pending task — exactly
// the semantics of a linear submission-order scan, at O(log n) per claim.
// Entries are lazily invalidated: a task that left pending (claimed,
// cancelled) is skipped when popped, and a requeued task is re-pushed
// under its own sequence number so it does not lose its place in line.
type seqHeap []uint64

func (h seqHeap) Len() int           { return len(h) }
func (h seqHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h seqHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *seqHeap) Push(x any)        { *h = append(*h, x.(uint64)) }
func (h *seqHeap) Pop() any          { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// Store is an in-memory task store with optional journal persistence. All
// methods are safe for concurrent use; hundreds of submitters and a
// worker pool can share one Store.
type Store[P any] struct {
	mu   sync.Mutex
	cond *sync.Cond
	// tasks holds the resident tasks by sequence number — the number every
	// id carries, which is also arrival order and claim priority.
	tasks   map[uint64]*Task[P]
	active  map[uint64]struct{} // tasks currently under a lease
	pending seqHeap             // claimable tasks, oldest first
	seq     uint64              // highest sequence number assigned (or fed from Source)
	journal *journal
	opts    Options[P]
	closed  bool
	m       storeMetrics

	sourceDone bool // Source returned ok=false; the work set is complete
	// settled indexes the evicted tasks by sequence number (entry seq-1,
	// in pages of indexPage entries, so growing it copies nothing): the
	// exactly-once memory of tasks whose records now live only in the
	// journal, and where Each reads them back.
	settled [][]evictedTask
	evicted map[State]uint64 // evicted terminal tasks by final state
}

const indexPage = 256 // evictedTask entries, 4 KB a page

// evictedTask is the index entry of an evicted terminal task: the
// location of its authoritative journal record and its final state.
type evictedTask struct {
	off   int64
	len   uint32
	state uint8 // 1 + the state's index in States; 0: not evicted
}

// New creates a memory-only store (no journal).
func New[P any](opts Options[P]) *Store[P] {
	s := &Store[P]{
		tasks:   make(map[uint64]*Task[P]),
		active:  make(map[uint64]struct{}),
		evicted: make(map[State]uint64),
		opts:    opts.withDefaults(),
	}
	s.opts.Evict = false // eviction needs a journal to hold the results
	s.cond = sync.NewCond(&s.mu)
	s.m = newStoreMetrics(s, s.opts)
	return s
}

// Open creates a store journaled at path, replaying any existing journal
// first: terminal tasks are kept (with their result pointers) and are
// never re-run; tasks that were claimed, running, or paused when the
// previous process died return to pending, or settle as cancelled if a
// cancel was requested. The journal is compacted on open (counted by the
// <prefix>_journal_compactions_total metric).
//
// With Options.Evict terminal tasks are never materialized — only their
// compacted records' locations and final states are indexed — so open
// memory is O(non-terminal tasks + 16 bytes per settled task), not
// O(tasks).
func Open[P any](path string, opts Options[P]) (*Store[P], error) {
	s := New(opts)
	s.opts.Evict = opts.Evict // New strips it; with a journal it is legal
	old, hdr, err := openJournal(path)
	if err != nil {
		return nil, err
	}
	if old != nil {
		defer old.Close()
	}
	if hdr.Meta != "" && s.opts.Meta != "" && hdr.Meta != s.opts.Meta {
		return nil, fmt.Errorf("%w (%s)", ErrMetaMismatch, path)
	}
	cfg := journalConfig{path: path, meta: s.opts.Meta, group: s.opts.GroupCommit}
	if cfg.meta == "" {
		cfg.meta = hdr.Meta // carry an existing fingerprint forward
	}
	jr, err := s.replay(old, cfg)
	if err != nil {
		return nil, err
	}
	jr.fsync = s.m.fsync
	jr.errs = s.m.journalErrors
	jr.appends = s.m.journalAppends
	jr.commits = s.m.groupCommits
	jr.start()
	s.journal = jr
	s.m.compactions.Inc()
	return s, nil
}

// replay rebuilds the store from the journal old (nil when there is
// none) and compacts it into cfg.path. One pass indexes the last record
// per sequence number, keeping the decoded task only while it must stay
// resident (non-terminal, or terminal without Evict); a second pass
// writes the compacted journal in sequence order — a fresh record for
// each task the dead process still owned (recovered), the authoritative
// bytes copied from the old file for everything else, so evicted results
// never live on the heap.
func (s *Store[P]) replay(old *os.File, cfg journalConfig) (*journal, error) {
	type last struct {
		loc   recLoc
		state State // "" = no record for this sequence number
	}
	var index []last // by seq-1
	resident := make(map[uint64]*Task[P])
	err := replayFile(old, cfg.path, func(t Task[P], loc recLoc) error {
		seq, ok := parseSeq(t.ID, s.opts.IDPrefix)
		if !ok || seq == 0 {
			return fmt.Errorf("distwork: journal %s: id %q is not %q plus a sequence number", cfg.path, t.ID, s.opts.IDPrefix)
		}
		for uint64(len(index)) < seq {
			index = append(index, last{})
		}
		index[seq-1] = last{loc: loc, state: t.State}
		if s.opts.Evict && t.State.Terminal() {
			delete(resident, seq)
		} else {
			resident[seq] = &t
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// A source ends its set at the first ok=false, so the highest
	// journaled sequence vouches for every one below it.
	if s.opts.Source != nil && len(index) > 0 {
		if _, ok := s.opts.Source(uint64(len(index))); !ok {
			return nil, fmt.Errorf("distwork: journal %s: sequence %d is beyond the end of the source", cfg.path, len(index))
		}
	}

	comp, err := newCompactor(cfg)
	if err != nil {
		return nil, err
	}
	for i, m := range index {
		seq := uint64(i) + 1
		if m.state == "" {
			if s.opts.Source == nil {
				// A submitted task whose every record was lost (a torn tail,
				// an unsynced append): nothing to recover, so the id answers
				// NotFound — but say so in the postmortem ring.
				s.m.flight.Recordf(s.opts.MetricPrefix, "journal has no record for %s; task dropped", s.id(seq))
				continue
			}
			// Resume restarts the source cursor past the highest journaled
			// sequence, so a gap below it would never be fed again.
			comp.abort()
			return nil, fmt.Errorf("distwork: journal %s: no record for sequence %d (hole)", cfg.path, seq)
		}
		t := resident[seq]
		var rec []byte
		if t != nil && t.State.Active() {
			if t.CancelRequested {
				t.State = StateCancelled
				t.Finished = s.opts.Now()
			} else {
				t.State = StatePending
				t.Note = "recovered after restart; requeued"
			}
			t.Worker = ""
			t.Lease = time.Time{}
			m.state = t.State
			rec, err = json.Marshal(t)
		} else {
			rec = make([]byte, m.loc.len)
			_, err = old.ReadAt(rec, m.loc.off)
		}
		if err != nil {
			comp.abort()
			return nil, fmt.Errorf("distwork: compacting journal record for %s: %w", s.id(seq), err)
		}
		loc, err := comp.add(rec)
		if err != nil {
			comp.abort()
			return nil, err
		}
		if s.opts.Evict && m.state.Terminal() {
			s.evict(seq, m.state, loc)
			continue
		}
		s.tasks[seq] = t
		if t.State == StatePending {
			s.pending = append(s.pending, seq) // ascending: already a heap
		}
	}
	jr, err := comp.finish()
	if err != nil {
		return nil, err
	}
	s.seq = uint64(len(index))
	return jr, nil
}

// id formats the task id for a sequence number.
func (s *Store[P]) id(seq uint64) string { return fmt.Sprintf("%s%06d", s.opts.IDPrefix, seq) }

// lookup finds the resident task with the given id. The sequence number
// is reported whenever id parses, resident or not, so callers can
// consult the settled index for evicted tasks. Callers hold s.mu.
func (s *Store[P]) lookup(id string) (t *Task[P], seq uint64) {
	seq, ok := parseSeq(id, s.opts.IDPrefix)
	if !ok {
		return nil, 0
	}
	if t = s.tasks[seq]; t != nil && t.ID != id {
		t = nil // an alias spelling of the number ("t1" for "t000001")
	}
	return t, seq
}

// begin locks the store for an operation that mutates tasks or appends
// to the journal. On a closed store it returns ErrClosed with the lock
// released; otherwise the caller unlocks s.mu.
func (s *Store[P]) begin() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	return nil
}

// evict drops the terminal task seq from memory and indexes its journal
// record at loc instead. Callers hold s.mu (or run during Open, before
// the store is shared).
func (s *Store[P]) evict(seq uint64, st State, loc recLoc) {
	i := seq - 1
	for uint64(len(s.settled)) <= i/indexPage {
		s.settled = append(s.settled, make([]evictedTask, indexPage))
	}
	s.settled[i/indexPage][i%indexPage] = evictedTask{off: loc.off, len: loc.len, state: uint8(slices.Index(States, st) + 1)}
	s.evicted[st]++
	delete(s.tasks, seq)
}

// evictedAt returns the index entry of seq (state 0 when seq was not
// evicted). Callers hold s.mu.
func (s *Store[P]) evictedAt(seq uint64) evictedTask {
	i := seq - 1
	if seq == 0 || i/indexPage >= uint64(len(s.settled)) {
		return evictedTask{}
	}
	return s.settled[i/indexPage][i%indexPage]
}

// evictedState reports the final state of the evicted task seq, or ""
// when seq was not evicted. Callers hold s.mu.
func (s *Store[P]) evictedState(seq uint64) State {
	if e := s.evictedAt(seq); e.state != 0 {
		return States[e.state-1]
	}
	return ""
}

// Each calls fn with every task in sequence order, up to the highest
// sequence number assigned when Each starts, and returns fn's first
// error. A resident task is copied from memory; an evicted one is read
// back from its journal record outside the store's lock, so fn may call
// into the store.
func (s *Store[P]) Each(fn func(Task[P]) error) error {
	s.mu.Lock()
	n := s.seq
	s.mu.Unlock()
	for seq := uint64(1); seq <= n; seq++ {
		var t Task[P]
		var e evictedTask
		s.mu.Lock()
		rt := s.tasks[seq]
		if rt != nil {
			t = *rt
		} else {
			e = s.evictedAt(seq)
		}
		jr := s.journal
		s.mu.Unlock()
		if rt == nil {
			if e.state == 0 {
				continue // replay dropped a submitted task that had no record
			}
			raw, err := jr.readRecord(recLoc{off: e.off, len: e.len})
			if err == nil {
				err = json.Unmarshal(raw, &t)
			}
			if err != nil {
				return fmt.Errorf("distwork: reading %s back from the journal: %w", s.id(seq), err)
			}
		}
		if err := fn(t); err != nil {
			return err
		}
	}
	return nil
}

// Lease reports the configured lease duration — the heartbeat contract a
// worker has to honor to keep its claims.
func (s *Store[P]) Lease() time.Duration { return s.opts.Lease }

// record journals the task's current state, mirrors the transition
// into the flight recorder and wakes every waiter — it is the one
// wake-up site for transitions — reporting the record's journal location
// (ok only when a journal is attached and the append landed). Callers
// hold s.mu.
func (s *Store[P]) record(t *Task[P]) (recLoc, bool) {
	var loc recLoc
	var ok bool
	if s.journal != nil {
		rec, err := json.Marshal(t)
		if err != nil {
			s.journal.fail(err)
		} else {
			loc, ok = s.journal.append(rec)
		}
	}
	if s.m.flight != nil {
		if t.Worker != "" {
			s.m.flight.Recordf(s.opts.MetricPrefix, "%s -> %s (%s, attempt %d)", t.ID, t.State, t.Worker, t.Attempts)
		} else {
			s.m.flight.Recordf(s.opts.MetricPrefix, "%s -> %s", t.ID, t.State)
		}
	}
	s.cond.Broadcast()
	return loc, ok
}

// enqueueLocked assigns the next sequence number to a new pending task.
// Callers hold s.mu.
func (s *Store[P]) enqueueLocked(payload P) *Task[P] {
	s.seq++
	t := &Task[P]{
		ID:        s.id(s.seq),
		State:     StatePending,
		Payload:   payload,
		Submitted: s.opts.Now(),
	}
	s.tasks[s.seq] = t
	heap.Push(&s.pending, s.seq)
	s.m.submitted.Inc()
	return t
}

// feedLocked pulls tasks from Options.Source until the pending heap
// holds want claimables or the source is exhausted. Fed tasks are not
// journaled — they are reproducible from (Source, seq), and claims go
// out in sequence order, so the journal's highest sequence number is
// exactly the resume point. Callers hold s.mu.
func (s *Store[P]) feedLocked(want int) {
	if s.opts.Source == nil || s.sourceDone {
		return
	}
	for s.pending.Len() < want {
		p, ok := s.opts.Source(s.seq + 1)
		if !ok {
			s.sourceDone = true
			// The set is now finite and may already be settled; wake
			// WaitSettled so it can notice.
			s.cond.Broadcast()
			return
		}
		s.enqueueLocked(p)
	}
}

// Submit enqueues a new task with the given payload and returns it.
// Stores with a Source reject external submissions — the source owns
// the sequence.
func (s *Store[P]) Submit(payload P) (Task[P], error) {
	if err := s.begin(); err != nil {
		return Task[P]{}, err
	}
	defer s.mu.Unlock()
	if s.opts.Source != nil {
		return Task[P]{}, fmt.Errorf("distwork: store is source-fed; external submit not allowed")
	}
	t := s.enqueueLocked(payload)
	s.record(t)
	return *t, nil
}

// Get returns a copy of the task, if it exists.
func (s *Store[P]) Get(id string) (Task[P], bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, _ := s.lookup(id)
	if t == nil {
		return Task[P]{}, false
	}
	return *t, true
}

// residentSeqsLocked lists the sequence numbers of the resident tasks
// accepted by keep, ascending. Callers hold s.mu.
func (s *Store[P]) residentSeqsLocked(keep func(seq uint64, t *Task[P]) bool) []uint64 {
	var seqs []uint64
	for seq, t := range s.tasks {
		if keep(seq, t) {
			seqs = append(seqs, seq)
		}
	}
	slices.Sort(seqs)
	return seqs
}

// List returns copies of all resident tasks in submission order. With
// Evict that is the non-terminal working set — evicted terminal tasks
// live only in the journal (Each reads them back).
func (s *Store[P]) List() []Task[P] {
	s.mu.Lock()
	defer s.mu.Unlock()
	seqs := s.residentSeqsLocked(func(uint64, *Task[P]) bool { return true })
	out := make([]Task[P], len(seqs))
	for i, seq := range seqs {
		out[i] = *s.tasks[seq]
	}
	return out
}

// requeueLocked returns a task to pending (lease expiry, release) and
// re-arms its claimability — unless a cancel was requested, which
// settles it as cancelled instead. Callers hold s.mu.
func (s *Store[P]) requeueLocked(seq uint64, note string) {
	t := s.tasks[seq]
	if t.CancelRequested {
		s.settleLocked(t, seq, StateCancelled, "", "")
		return
	}
	t.State = StatePending
	t.Worker = ""
	t.Lease = time.Time{}
	t.Note = note
	delete(s.active, seq)
	heap.Push(&s.pending, seq)
	s.record(t)
}

// expireLocked requeues active tasks whose lease lapsed, in submission
// order so the journal stays deterministic. Only the active set is
// scanned — O(leased), not O(all tasks) — which keeps claim latency flat
// as terminal tasks accumulate over a long daemon lifetime. Callers hold
// s.mu.
func (s *Store[P]) expireLocked(now time.Time) int {
	var lapsed []uint64
	for seq := range s.active {
		if t := s.tasks[seq]; t.State.Active() && now.After(t.Lease) {
			lapsed = append(lapsed, seq)
		}
	}
	slices.Sort(lapsed)
	for _, seq := range lapsed {
		s.requeueLocked(seq, "lease expired; requeued")
	}
	s.m.expirations.Add(uint64(len(lapsed)))
	return len(lapsed)
}

// ExpireLeases requeues every active task whose lease has lapsed (the
// worker stopped heartbeating) and reports how many were requeued. A
// coordinator calls this on a timer; the expired tasks are then claimed —
// stolen — by whichever worker asks next.
func (s *Store[P]) ExpireLeases() int {
	if s.begin() != nil {
		return 0
	}
	defer s.mu.Unlock()
	return s.expireLocked(s.opts.Now())
}

// TryClaim claims the oldest pending task for worker, or reports none
// available. Expired leases are collected first, so a crashed worker's
// tasks become claimable here.
func (s *Store[P]) TryClaim(worker string) (Task[P], bool) {
	if s.begin() != nil {
		return Task[P]{}, false
	}
	defer s.mu.Unlock()
	now := s.opts.Now()
	s.expireLocked(now)
	return s.claimOneLocked(worker, now)
}

// claimOneLocked pops the oldest claimable pending task (feeding the
// source as needed) and claims it. Callers hold s.mu and have already
// collected expired leases.
func (s *Store[P]) claimOneLocked(worker string, now time.Time) (Task[P], bool) {
	for {
		s.feedLocked(1)
		if s.pending.Len() == 0 {
			return Task[P]{}, false
		}
		seq := heap.Pop(&s.pending).(uint64)
		t := s.tasks[seq]
		if t == nil || t.State != StatePending {
			continue // lazily dropped: claimed or cancelled since it was pushed
		}
		if t.Attempts > 0 {
			// A re-claim of a task some worker held before: a steal (lease
			// expiry, crash recovery, or an explicit release).
			s.m.steals.Inc()
		}
		t.State = StateClaimed
		t.Worker = worker
		t.Lease = now.Add(s.opts.Lease)
		t.Attempts++
		t.Note = ""
		s.active[seq] = struct{}{}
		s.m.claims.Inc()
		s.record(t)
		return *t, true
	}
}

// claimBatchLocked collects expired leases and claims up to max pending
// tasks for worker. Callers hold s.mu.
func (s *Store[P]) claimBatchLocked(worker string, max int) []Task[P] {
	if max < 1 {
		max = 1
	}
	now := s.opts.Now()
	s.expireLocked(now)
	var out []Task[P]
	for len(out) < max {
		t, ok := s.claimOneLocked(worker, now)
		if !ok {
			break
		}
		if out == nil {
			// Sized once for batches up to 64 (max is a client's word, so
			// it only caps the guess): regrowing would copy each Task
			// about twice more.
			out = make([]Task[P], 0, min(max, 64))
		}
		out = append(out, t)
	}
	if len(out) > 0 {
		s.m.batchClaims.Inc()
	}
	return out
}

// TryClaimBatch claims up to max pending tasks for worker in one lock
// acquisition — the server side of the lease protocol, amortizing lock
// traffic and (with group commit) journal fsyncs over the batch. Steal
// and exactly-once semantics are per task, identical to TryClaim.
func (s *Store[P]) TryClaimBatch(worker string, max int) []Task[P] {
	if s.begin() != nil {
		return nil
	}
	defer s.mu.Unlock()
	return s.claimBatchLocked(worker, max)
}

// ClaimBatch is the blocking TryClaimBatch an in-process worker idles
// in: it waits until at least one task is claimable, ctx is done, or the
// store closes.
func (s *Store[P]) ClaimBatch(ctx context.Context, worker string, max int) ([]Task[P], error) {
	var out []Task[P]
	err := s.wait(ctx, func() bool {
		out = s.claimBatchLocked(worker, max)
		return len(out) > 0
	})
	return out, err
}

// WaitTask blocks until task id is no longer in state from (or unknown),
// ctx is done, or the store closes.
func (s *Store[P]) WaitTask(ctx context.Context, id string, from State) error {
	return s.wait(ctx, func() bool {
		t, _ := s.lookup(id)
		return t == nil || t.State != from
	})
}

// wait is the store's one blocking loop: it re-checks ready under s.mu
// after every wake-up until it holds, ctx is done, or the store closes.
func (s *Store[P]) wait(ctx context.Context, ready func() bool) error {
	defer context.AfterFunc(ctx, s.wake)()
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if s.closed {
			return ErrClosed
		}
		if ready() {
			return nil
		}
		s.cond.Wait()
	}
}

// wake makes every goroutine blocked on the store re-check its context.
func (s *Store[P]) wake() {
	s.mu.Lock()
	s.cond.Broadcast()
	s.mu.Unlock()
}

// owned fetches the task and verifies worker holds it. An evicted
// (settled, journal-only) id reports ErrNotOwner with its final state —
// the stale worker's late transition loses to the settled record,
// preserving exactly-once even though the task left memory. Callers
// hold s.mu.
func (s *Store[P]) owned(id, worker string) (*Task[P], uint64, error) {
	t, seq := s.lookup(id)
	if t == nil {
		if st := s.evictedState(seq); st != "" {
			return nil, 0, &NotOwnerError{ID: id, State: st, Claimant: worker}
		}
		return nil, 0, &NotFoundError{ID: id}
	}
	if !t.State.Active() || t.Worker != worker {
		return nil, 0, &NotOwnerError{ID: id, State: t.State, Worker: t.Worker, Claimant: worker}
	}
	return t, seq, nil
}

// HeartbeatBatch renews worker's lease on every id in one lock
// acquisition, reporting per-id errors positionally (nil = renewed).
func (s *Store[P]) HeartbeatBatch(worker string, ids []string) []error {
	out := make([]error, len(ids))
	if err := s.begin(); err != nil {
		for i := range out {
			out[i] = err
		}
		return out
	}
	defer s.mu.Unlock()
	for i, id := range ids {
		t, _, err := s.owned(id, worker)
		if err != nil {
			out[i] = err
			continue
		}
		t.Lease = s.opts.Now().Add(s.opts.Lease)
		s.m.heartbeats.Inc()
	}
	return out
}

// setState moves an owned task to the given active state.
func (s *Store[P]) setState(id, worker string, st State) error {
	if err := s.begin(); err != nil {
		return err
	}
	defer s.mu.Unlock()
	t, _, err := s.owned(id, worker)
	if err != nil {
		return err
	}
	if t.State == st {
		return nil
	}
	t.State = st
	t.Lease = s.opts.Now().Add(s.opts.Lease)
	if st == StateRunning && t.Started.IsZero() {
		t.Started = s.opts.Now()
	}
	s.record(t)
	return nil
}

// MarkRunning transitions a claimed (or paused) task to running.
func (s *Store[P]) MarkRunning(id, worker string) error {
	return s.setState(id, worker, StateRunning)
}

// MarkPaused transitions a running task to paused. The worker keeps the
// claim and must keep heartbeating.
func (s *Store[P]) MarkPaused(id, worker string) error {
	return s.setState(id, worker, StatePaused)
}

// Finish moves an owned task to a terminal state: done when runErr is
// nil, failed otherwise. result is an opaque outcome pointer stored on
// the task and survives journal recovery.
func (s *Store[P]) Finish(id, worker, result string, runErr error) error {
	state := StateDone
	errMsg := ""
	if runErr != nil {
		state = StateFailed
		errMsg = runErr.Error()
	}
	return s.finish(id, worker, state, result, errMsg)
}

// FinishCancelled moves an owned task to cancelled (a cancel request was
// honored mid-run); result may point at partial output.
func (s *Store[P]) FinishCancelled(id, worker, result string) error {
	return s.finish(id, worker, StateCancelled, result, "")
}

func (s *Store[P]) finish(id, worker string, st State, result, errMsg string) error {
	if err := s.begin(); err != nil {
		return err
	}
	defer s.mu.Unlock()
	return s.finishLocked(id, worker, st, result, errMsg)
}

func (s *Store[P]) finishLocked(id, worker string, st State, result, errMsg string) error {
	t, seq, err := s.owned(id, worker)
	if err != nil {
		return err
	}
	s.settleLocked(t, seq, st, result, errMsg)
	return nil
}

// settleLocked moves a task to the terminal state st and journals it.
// Callers hold s.mu.
func (s *Store[P]) settleLocked(t *Task[P], seq uint64, st State, result, errMsg string) {
	t.State = st
	t.Worker = ""
	t.Lease = time.Time{}
	t.Finished = s.opts.Now()
	t.Result = result
	t.Error = errMsg
	delete(s.active, seq)
	s.m.finished[st].Inc()
	// Once journaled, the record is the authoritative copy. A record the
	// journal did not take keeps the task resident: it exists nowhere
	// else.
	if loc, journaled := s.record(t); s.opts.Evict && journaled {
		s.evict(seq, st, loc)
	}
}

// FinishItem is one settlement in a FinishBatch: done with Result when
// Error is empty, failed otherwise.
type FinishItem struct {
	ID     string
	Result string
	Error  string
}

// FinishBatch settles many owned tasks in one lock acquisition — the
// server side of the lease protocol. Per-item errors are positional
// (nil = settled); the usual stale-claim outcome is a NotOwnerError on
// just the stolen items.
func (s *Store[P]) FinishBatch(worker string, items []FinishItem) []error {
	out := make([]error, len(items))
	if err := s.begin(); err != nil {
		for i := range out {
			out[i] = err
		}
		return out
	}
	defer s.mu.Unlock()
	for i, it := range items {
		st := StateDone
		if it.Error != "" {
			st = StateFailed
		}
		out[i] = s.finishLocked(it.ID, worker, st, it.Result, it.Error)
	}
	return out
}

// Release returns an owned task to pending without finishing it — the
// graceful-shutdown path. note (e.g. partial-progress details) is
// journaled with the transition, so a restarted process sees how far the
// interrupted run got before it re-runs the task.
func (s *Store[P]) Release(id, worker, note string) error {
	if err := s.begin(); err != nil {
		return err
	}
	defer s.mu.Unlock()
	_, seq, err := s.owned(id, worker)
	if err != nil {
		return err
	}
	s.requeueLocked(seq, note)
	s.m.releases.Inc()
	return nil
}

// Cancel requests cancellation. A pending task is cancelled immediately.
// An active task keeps its state and gains a journaled CancelRequested:
// its worker is expected to stop and call FinishCancelled, and release,
// lease expiry or a restart settles it as cancelled instead of
// requeueing it. Cancelling a terminal task is a no-op. The returned
// state is the task's state after the call.
func (s *Store[P]) Cancel(id string) (State, error) {
	if err := s.begin(); err != nil {
		return "", err
	}
	defer s.mu.Unlock()
	t, seq := s.lookup(id)
	if t == nil {
		if st := s.evictedState(seq); st != "" {
			return st, nil // evicted terminal: cancel is a no-op
		}
		return "", &NotFoundError{ID: id}
	}
	switch {
	case t.State == StatePending:
		if s.opts.Source != nil {
			// Source-fed pending tasks are normally unjournaled (re-fed on
			// resume from the highest journaled sequence). Journaling this
			// cancel would advance that watermark past still-unjournaled
			// earlier tasks, so journal those first — no resume holes.
			below := func(k uint64, p *Task[P]) bool { return k < seq && p.State == StatePending }
			for _, k := range s.residentSeqsLocked(below) {
				s.record(s.tasks[k])
			}
		}
		s.settleLocked(t, seq, StateCancelled, "", "")
	case t.State.Active() && !t.CancelRequested:
		t.CancelRequested = true
		s.record(t)
	}
	return t.State, nil
}

// Counts tallies tasks by state, including evicted terminal tasks.
func (s *Store[P]) Counts() map[State]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[State]int)
	for _, t := range s.tasks {
		out[t.State]++
	}
	for st, n := range s.evicted {
		out[st] += int(n)
	}
	return out
}

// countState tallies tasks currently in state st (sampled at scrape time
// by the per-state callback gauges — the gauge reads the store the queue
// already maintains instead of keeping a parallel count). Evicted
// terminal tasks stay counted under their final state.
func (s *Store[P]) countState(st State) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := int(s.evicted[st])
	for _, t := range s.tasks {
		if t.State == st {
			n++
		}
	}
	return n
}

// settledLocked reports whether every task is terminal. Callers hold
// s.mu. An empty store is settled; a source-fed store is settled only
// once the source is drained (evicted tasks are terminal by
// construction).
func (s *Store[P]) settledLocked() bool {
	if s.opts.Source != nil && !s.sourceDone {
		// Probe the source before answering: an empty (or exactly
		// drained) source must settle even if no claim ever ran to
		// discover the exhaustion.
		s.feedLocked(1)
		if !s.sourceDone {
			return false
		}
	}
	for _, t := range s.tasks {
		if !t.State.Terminal() {
			return false
		}
	}
	return true
}

// Settled reports whether every task has reached a terminal state — the
// completion condition of a fixed work set such as a sweep grid.
func (s *Store[P]) Settled() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.settledLocked()
}

// WaitSettled blocks until every task is terminal, ctx is done, or the
// store closes. It is how a grid coordinator knows the sweep is complete:
// workers finish (or fail) cells, lease expiry requeues stragglers, and
// settlement means nothing pending or leased remains.
func (s *Store[P]) WaitSettled(ctx context.Context) error {
	return s.wait(ctx, s.settledLocked)
}

// Close flushes and closes the journal and wakes all blocked ClaimBatch,
// WaitSettled and WaitTask calls with an error. Tasks are not mutated:
// active tasks stay active in the journal for the next Open to recover.
func (s *Store[P]) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	s.cond.Broadcast()
	if s.journal != nil {
		return s.journal.close()
	}
	return nil
}
