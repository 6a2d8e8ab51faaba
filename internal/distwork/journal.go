package distwork

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// The journal is a JSONL log of task snapshots: every state transition
// appends the task's full record (its JSON form), so the last line per
// task id is its authoritative state. Recovery is a replay keeping the
// last record of each id; compaction rewrites the log with exactly one
// line per task.
//
// Full-record snapshots (rather than deltas) keep recovery trivial and
// make the journal greppable operational evidence: `grep t000017
// journal.jsonl` is the task's complete history.
//
// # Layout
//
// The journal is one file. Its first line is a header
//
//	{"journal_shards":1,"shard":0,"meta":"..."}
//
// carrying an optional caller fingerprint of the work set (Options.Meta —
// the sweep grid refuses to resume a journal whose meta names a
// different grid). The header cannot be confused with a record: no task
// carries its first field. Its two counters are fixed at one file, index
// 0: they name the multi-file layout older builds could write, which this
// one refuses rather than half-reads. A file that does not start with a
// header is not a journal and is refused too.
//
// Compaction writes path.tmp, fsyncs it, and renames it over path; that
// rename is the one commit point, so a crash before it leaves the old
// journal whole and a stale path.tmp that the next compaction truncates.
//
// # Group commit
//
// With Options.GroupCommit == 0 every append is written, flushed, and
// fsynced before the transition returns — durable against OS crashes at
// one fsync per transition. With a window > 0, appends are written and
// flushed to the OS immediately (so a killed process still loses
// nothing) but fsync is batched: a background syncer fsyncs the file
// once per window if it took appends, amortizing one fsync over every
// settlement that landed inside it. The crash window is the group-commit
// interval against power loss only; torn-tail tolerance covers a crash
// mid-append either way.

// recLoc addresses one record inside the journal: byte offset of the
// record's first byte and record length (excluding the trailing
// newline). A length fits 32 bits: replay reads no line over 64 MB.
type recLoc struct {
	off int64
	len uint32
}

// journalHeader is the journal's first line. Files >= 1 distinguishes it
// from task records, which never carry the field; this build writes and
// accepts only Files 1, Index 0.
type journalHeader struct {
	Files int    `json:"journal_shards"`
	Index int    `json:"shard"`
	Meta  string `json:"meta,omitempty"`
}

// journalConfig is what a journal is (re)written with.
type journalConfig struct {
	path  string
	meta  string
	group time.Duration // group-commit window; 0 = fsync per append
}

type journal struct {
	mu    sync.Mutex
	cfg   journalConfig
	f     *os.File
	w     *bufio.Writer
	size  int64 // bytes written (including header and buffered data)
	dirty bool  // has unfsynced data (group-commit mode)
	err   error // first write error; subsequent appends are dropped

	fsync   *obs.Histogram // write+flush+fsync latency per append (or per group commit)
	errs    *obs.Counter   // journaled-write failures (latched once)
	appends *obs.Counter   // records appended
	commits *obs.Counter   // group-commit fsync rounds

	stop chan struct{} // closes the group-commit syncer
	done chan struct{} // syncer exited
}

// openJournal opens the journal at path for replay and decodes its
// header. A missing file is a fresh journal: it returns a nil file and
// no error. A file that does not start with a header — notably a
// headerless journal from before headers existed — is refused rather
// than replayed as empty or half-read, and so is a header declaring
// several files.
func openJournal(path string) (*os.File, journalHeader, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			err = nil
		}
		return nil, journalHeader{}, err
	}
	first, _ := bufio.NewReaderSize(f, 4096).ReadString('\n')
	var h journalHeader
	switch {
	case json.Unmarshal([]byte(first), &h) != nil || h.Files < 1:
		err = fmt.Errorf("distwork: journal %s: first line is not a journal header; refusing to replay it", path)
	case h.Files != 1 || h.Index != 0:
		err = fmt.Errorf("distwork: journal %s declares %d files (this is file %d); only one-file journals are read: "+
			"finish it with the build that wrote it, or start a new journal", path, h.Files, h.Index)
	}
	if err != nil {
		f.Close()
		return nil, journalHeader{}, err
	}
	return f, h, nil
}

// replayFile streams every record of the journal f (nil: none) through
// fn in file order, with each record's location; the last call per task
// id carries its authoritative state. Records are decoded strictly: a line that is
// whole JSON but not a Task this store wrote — an unknown field, a
// mistyped one, as in a journal kept by a build that recorded a
// different shape under the same header — refuses the journal, because
// dropping the foreign fields would replay its tasks half-read and the
// compaction would then erase them for good. A line that is not JSON at
// all is tolerated only as the last line the scanner yields — the torn
// tail of a crash mid-append; followed by anything, it is corruption
// worth surfacing.
func replayFile[P any](f *os.File, fp string, fn func(t Task[P], loc recLoc) error) error {
	if f == nil {
		return nil
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("distwork: reading journal %s: %w", fp, err)
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20) // payloads can be large
	line := 0
	var off int64
	var torn error
	for sc.Scan() {
		if torn != nil {
			return torn
		}
		line++
		raw := sc.Bytes()
		loc := recLoc{off: off, len: uint32(len(raw))}
		off += int64(len(raw)) + 1
		if line == 1 {
			continue // the header, checked by openJournal
		}
		text := bytes.TrimSpace(raw)
		if len(text) == 0 {
			continue
		}
		var t Task[P]
		dec := json.NewDecoder(bytes.NewReader(text))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&t); err != nil {
			err = fmt.Errorf("distwork: journal %s line %d: %w", fp, line, err)
			if json.Valid(text) {
				return fmt.Errorf("%w: not a task record of this store; refusing to replay it", err)
			}
			torn = err
			continue
		}
		if t.ID == "" || !t.State.Valid() {
			return fmt.Errorf("distwork: journal %s line %d: invalid record", fp, line)
		}
		if err := fn(t, loc); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("distwork: reading journal %s: %w", fp, err)
	}
	return nil
}

func parseSeq(id, prefix string) (uint64, bool) {
	if !strings.HasPrefix(id, prefix) {
		return 0, false
	}
	n, err := strconv.ParseUint(id[len(prefix):], 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// compactor writes a fresh journal record by record into path.tmp,
// which finish renames into place, so a crash during compaction never
// loses the previous journal. add returns each record's final location,
// which is how Open indexes evicted results without holding them
// resident.
type compactor struct {
	cfg  journalConfig
	f    *os.File
	w    *bufio.Writer
	size int64
}

func newCompactor(cfg journalConfig) (*compactor, error) {
	f, err := os.Create(cfg.path + ".tmp")
	if err != nil {
		return nil, err
	}
	c := &compactor{cfg: cfg, f: f, w: bufio.NewWriter(f)}
	hdr, err := json.Marshal(journalHeader{Files: 1, Meta: cfg.meta})
	if err == nil {
		err = writeRecord(c.w, hdr)
	}
	if err != nil {
		c.abort()
		return nil, err
	}
	c.size = int64(len(hdr)) + 1
	return c, nil
}

func (c *compactor) add(rec []byte) (recLoc, error) {
	loc := recLoc{off: c.size, len: uint32(len(rec))}
	if err := writeRecord(c.w, rec); err != nil {
		return recLoc{}, err
	}
	c.size += int64(len(rec)) + 1
	return loc, nil
}

func (c *compactor) abort() {
	if c.f != nil {
		c.f.Close()
	}
	os.Remove(c.cfg.path + ".tmp")
}

// finish flushes and syncs path.tmp, renames it over path — the
// compaction's one commit point — and returns the journal reopened for
// appends.
func (c *compactor) finish() (*journal, error) {
	err := c.w.Flush()
	if err == nil {
		err = c.f.Sync()
	}
	if cerr := c.f.Close(); err == nil {
		err = cerr
	}
	c.f = nil
	if err == nil {
		err = os.Rename(c.cfg.path+".tmp", c.cfg.path)
	}
	if err != nil {
		c.abort()
		return nil, err
	}
	// O_RDWR so Each can pread evicted results back out of the file
	// the appender holds open.
	f, err := os.OpenFile(c.cfg.path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &journal{cfg: c.cfg, f: f, w: bufio.NewWriter(f), size: c.size}, nil
}

func writeRecord(w *bufio.Writer, rec []byte) error {
	if _, err := w.Write(rec); err != nil {
		return err
	}
	return w.WriteByte('\n')
}

// start launches the group-commit syncer (no-op without a window).
// Called by Open after the metrics instruments are attached.
func (jr *journal) start() {
	if jr.cfg.group <= 0 || jr.stop != nil {
		return
	}
	jr.stop = make(chan struct{})
	jr.done = make(chan struct{})
	go jr.commitLoop()
}

func (jr *journal) commitLoop() {
	defer close(jr.done)
	tick := time.NewTicker(jr.cfg.group)
	defer tick.Stop()
	for {
		select {
		case <-jr.stop:
			return
		case <-tick.C:
			jr.commit()
		}
	}
}

// commit fsyncs the file if it took appends since the last round: one
// group commit. The write lock is held only to take the dirty flag —
// fsync runs outside it, so appends keep landing while the disk syncs.
func (jr *journal) commit() {
	jr.mu.Lock()
	dirty := jr.dirty && jr.err == nil
	jr.dirty = false
	jr.mu.Unlock()
	if !dirty {
		return
	}
	start := time.Now()
	if err := jr.f.Sync(); err != nil {
		jr.fail(err)
		return
	}
	jr.fsync.Observe(time.Since(start).Seconds())
	jr.commits.Inc()
}

// fail latches err as the journal's write error (encoding failures reach
// here): subsequent appends are dropped and the error surfaces on close.
func (jr *journal) fail(err error) {
	jr.mu.Lock()
	defer jr.mu.Unlock()
	jr.latch(err)
}

// latch records the first write error and counts it. Callers hold jr.mu.
func (jr *journal) latch(err error) {
	if err == nil || jr.err != nil {
		return
	}
	jr.err = err
	jr.errs.Inc()
}

// append journals one encoded record and returns its location. Without
// a group-commit window the record is flushed and fsynced before
// returning (transitions are rare relative to events, and durability is
// the point of the journal); with one, the record is flushed to the OS
// — surviving a process kill — and the background syncer batches the
// fsync.
func (jr *journal) append(rec []byte) (recLoc, bool) {
	jr.mu.Lock()
	defer jr.mu.Unlock()
	if jr.err != nil {
		return recLoc{}, false
	}
	loc := recLoc{off: jr.size, len: uint32(len(rec))}
	var start time.Time
	grouped := jr.cfg.group > 0
	if !grouped && jr.fsync != nil {
		start = time.Now()
	}
	if err := writeRecord(jr.w, rec); err != nil {
		jr.latch(err)
		return recLoc{}, false
	}
	jr.size += int64(len(rec)) + 1
	if err := jr.w.Flush(); err != nil {
		jr.latch(err)
		return recLoc{}, false
	}
	if grouped {
		jr.dirty = true
	} else {
		if err := jr.f.Sync(); err != nil {
			jr.latch(err)
			return recLoc{}, false
		}
		if jr.fsync != nil {
			jr.fsync.Observe(time.Since(start).Seconds())
		}
	}
	jr.appends.Inc()
	return loc, true
}

// readRecord reads the record at loc back out of the journal. Every
// append that reports a location was flushed to the file before it
// returned, so the pread needs no lock, and a later write error — which
// leaves bufio's error sticky — does not hide the records before it.
func (jr *journal) readRecord(loc recLoc) ([]byte, error) {
	buf := make([]byte, loc.len)
	if _, err := jr.f.ReadAt(buf, loc.off); err != nil {
		return nil, fmt.Errorf("distwork: reading journal record at offset %d: %w", loc.off, err)
	}
	return buf, nil
}

func (jr *journal) close() error {
	if jr.stop != nil {
		close(jr.stop)
		<-jr.done
		jr.stop = nil
	}
	jr.mu.Lock()
	defer jr.mu.Unlock()
	err := jr.err
	for _, step := range []func() error{jr.w.Flush, jr.f.Sync, jr.f.Close} {
		if serr := step(); serr != nil {
			jr.latch(serr)
			if err == nil {
				err = serr
			}
		}
	}
	return err
}
