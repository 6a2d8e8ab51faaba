package distwork

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
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
// journal.jsonl*` is the task's complete history.
//
// # Layout
//
// The journal is Options.Shards files (0 means 1): shard 0 at path,
// shard k at path.s00k. Records are assigned to shards by an FNV hash of
// the task id, so one id's history lives entirely in one file and
// per-file "last record wins" replay stays correct. Every file begins
// with a header line
//
//	{"journal_shards":N,"shard":K,"meta":"..."}
//
// that records the shard count (layout discovery on reopen), the file's
// own index (consistency check), and an optional caller fingerprint of
// the work set (Options.Meta — the sweep grid refuses to resume a
// journal whose meta names a different grid). The header cannot be
// confused with a record: no task carries a "journal_shards" field. A
// file that does not start with one is not a journal and is refused.
//
// Reopening with a different shard count is allowed — replay reads the
// layout the files declare, and the compaction rewrite re-hashes every
// record into the newly requested layout.
//
// # Group commit
//
// With Options.GroupCommit == 0 every append is written, flushed, and
// fsynced before the transition returns — durable against OS crashes at
// one fsync per transition. With a window > 0, appends are written and
// flushed to the OS immediately (so a killed process still loses
// nothing) but fsync is batched: a background syncer flushes dirty
// shards every window, amortizing one fsync over every settlement that
// landed inside it. The crash window is the group-commit interval
// against power loss only; torn-tail tolerance covers a crash mid-append
// either way.

// RecLoc addresses one record inside the journal: shard index, byte
// offset of the record's first byte, and record length (excluding the
// trailing newline). Terminal records' locations are handed to
// Options.OnSettled so a consumer can stream results back out of the
// compacted journal (ReadRecord) without keeping them resident.
type RecLoc struct {
	Shard int
	Off   int64
	Len   int
}

// shardHeader is the first line of every journal file. Shards >= 1
// distinguishes it from task records, which never carry the field.
type shardHeader struct {
	Shards int    `json:"journal_shards"`
	Shard  int    `json:"shard"`
	Meta   string `json:"meta,omitempty"`
}

// journalConfig is the layout a journal is (re)written with.
type journalConfig struct {
	path  string
	nsh   int // number of shard files, >= 1
	meta  string
	group time.Duration // group-commit window; 0 = fsync per append
}

// shardPath names shard k of a journal rooted at path. Shard 0 is path
// itself, so a one-shard journal is the single file the caller named.
func shardPath(path string, k int) string {
	if k == 0 {
		return path
	}
	return fmt.Sprintf("%s.s%03d", path, k)
}

// shardIndex hashes a task id onto a shard (FNV-1a).
func shardIndex(id string, n int) int {
	if n <= 1 {
		return 0
	}
	h := uint32(2166136261)
	for i := 0; i < len(id); i++ {
		h = (h ^ uint32(id[i])) * 16777619
	}
	return int(h % uint32(n))
}

// jshard is one journal shard file opened for appends.
type jshard struct {
	f     *os.File
	w     *bufio.Writer
	size  int64 // bytes written (including header and buffered data)
	dirty bool  // has unfsynced data (group-commit mode)
}

type journal struct {
	mu     sync.Mutex
	cfg    journalConfig
	shards []*jshard
	err    error // first write error; subsequent appends are dropped

	fsync   *obs.Histogram // write+flush+fsync latency per append (or per group commit)
	errs    *obs.Counter   // journaled-write failures (latched once)
	appends *obs.Counter   // records appended across all shards
	commits *obs.Counter   // group-commit fsync rounds

	stop chan struct{} // closes the group-commit syncer
	done chan struct{} // syncer exited
}

// journalLayout is what detectLayout found on disk.
type journalLayout struct {
	nsh  int // 0 = no journal on disk
	meta string
}

// detectLayout inspects the journal rooted at path: absent (fresh) or
// laid out as its shard-0 header declares. The on-disk layout — not the
// caller's requested one — drives replay; compaction then rewrites into
// the requested layout.
func detectLayout(path string) (journalLayout, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return journalLayout{}, nil
		}
		return journalLayout{}, err
	}
	defer f.Close()
	first, _ := bufio.NewReaderSize(f, 4096).ReadString('\n')
	h, ok := parseShardHeader(first)
	if !ok {
		return journalLayout{}, errNoHeader(path)
	}
	if h.Shard != 0 {
		return journalLayout{}, fmt.Errorf("distwork: journal %s header claims shard %d, want 0", path, h.Shard)
	}
	return journalLayout{nsh: h.Shards, meta: h.Meta}, nil
}

// errNoHeader refuses a file that is not a journal shard — notably a
// headerless single-file journal from before the sharded layout, which
// must not be replayed as empty or half-read.
func errNoHeader(fp string) error {
	return fmt.Errorf("distwork: journal %s: first line is not a shard header; refusing to replay it", fp)
}

func parseShardHeader(line string) (shardHeader, bool) {
	line = strings.TrimSpace(line)
	if !strings.HasPrefix(line, `{"journal_shards":`) {
		return shardHeader{}, false
	}
	var h shardHeader
	if err := json.Unmarshal([]byte(line), &h); err != nil || h.Shards < 1 {
		return shardHeader{}, false
	}
	return h, true
}

// replayLayout streams every record of the on-disk journal through fn
// in file order (shard by shard), with each record's location. The last
// call per task id carries its authoritative state, because a given id
// hashes to exactly one shard.
func replayLayout[P any](path string, lay journalLayout, fn func(t Task[P], loc RecLoc) error) error {
	for k := 0; k < lay.nsh; k++ {
		fp := shardPath(path, k)
		f, err := os.Open(fp)
		if err != nil {
			if os.IsNotExist(err) && k > 0 {
				continue // shard never created (or lost with its records)
			}
			return err
		}
		err = replayShardFile(f, fp, k, lay, fn)
		f.Close()
		if err != nil {
			return err
		}
	}
	return nil
}

// replayShardFile streams one shard. Records are decoded strictly: a
// line that is whole JSON but not a Task this store wrote — an unknown
// field, a mistyped one, as in a journal kept by a build that recorded a
// different shape under the same header — refuses the journal, because
// dropping the foreign fields would replay its tasks half-read and the
// compaction would then erase them for good. A line that is not JSON at
// all is tolerated only as the last line the scanner yields — the torn
// tail of a crash mid-append; followed by anything, it is corruption
// worth surfacing.
func replayShardFile[P any](f *os.File, fp string, k int, lay journalLayout, fn func(t Task[P], loc RecLoc) error) error {
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
		loc := RecLoc{Shard: k, Off: off, Len: len(raw)}
		off += int64(len(raw)) + 1
		if line == 1 {
			h, ok := parseShardHeader(string(raw))
			if !ok {
				return errNoHeader(fp)
			}
			if h.Shards != lay.nsh || h.Shard != k {
				return fmt.Errorf("distwork: journal shard %s header (%d of %d) does not match layout (%d of %d)",
					fp, h.Shard, h.Shards, k, lay.nsh)
			}
			continue
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

// compactor writes a fresh journal layout record by record. Every shard
// is written to a temp file and renamed into place on finish, so a
// crash during compaction never loses the previous journal. add returns
// each record's final location, which is how Open hands result offsets
// to Options.OnSettled without holding results resident.
type compactor struct {
	cfg   journalConfig
	files []*os.File
	ws    []*bufio.Writer
	sizes []int64
}

func newCompactor(cfg journalConfig) (*compactor, error) {
	c := &compactor{cfg: cfg}
	for k := 0; k < cfg.nsh; k++ {
		f, err := os.Create(shardPath(cfg.path, k) + ".tmp")
		if err != nil {
			c.abort()
			return nil, err
		}
		c.files = append(c.files, f)
		c.ws = append(c.ws, bufio.NewWriter(f))
		c.sizes = append(c.sizes, 0)
		hdr, err := json.Marshal(shardHeader{Shards: cfg.nsh, Shard: k, Meta: cfg.meta})
		if err != nil {
			c.abort()
			return nil, err
		}
		if err := writeRecord(c.ws[k], hdr); err != nil {
			c.abort()
			return nil, err
		}
		c.sizes[k] = int64(len(hdr)) + 1
	}
	return c, nil
}

func (c *compactor) add(id string, rec []byte) (RecLoc, error) {
	k := shardIndex(id, c.cfg.nsh)
	loc := RecLoc{Shard: k, Off: c.sizes[k], Len: len(rec)}
	if err := writeRecord(c.ws[k], rec); err != nil {
		return RecLoc{}, err
	}
	c.sizes[k] += int64(len(rec)) + 1
	return loc, nil
}

func (c *compactor) abort() {
	for k, f := range c.files {
		f.Close()
		os.Remove(shardPath(c.cfg.path, k) + ".tmp")
	}
	c.files = nil
}

// finish flushes, syncs, and renames every shard into place, removes
// stale shard files a previous (wider) layout left behind, and returns
// the journal reopened for appends.
func (c *compactor) finish() (*journal, error) {
	for k := range c.files {
		if err := c.ws[k].Flush(); err != nil {
			c.abort()
			return nil, err
		}
		if err := c.files[k].Sync(); err != nil {
			c.abort()
			return nil, err
		}
		if err := c.files[k].Close(); err != nil {
			c.files[k] = nil
			c.abort()
			return nil, err
		}
	}
	for k := range c.files {
		if err := os.Rename(shardPath(c.cfg.path, k)+".tmp", shardPath(c.cfg.path, k)); err != nil {
			return nil, err
		}
	}
	// A narrower layout than before leaves higher-numbered shard files
	// orphaned; shard names are contiguous, so remove until the first gap.
	for k := c.cfg.nsh; ; k++ {
		if err := os.Remove(shardPath(c.cfg.path, k)); err != nil {
			break
		}
	}
	jr := &journal{cfg: c.cfg}
	for k := 0; k < c.cfg.nsh; k++ {
		// O_RDWR so ReadRecord can pread settled results back out of the
		// shard the appender still holds open.
		f, err := os.OpenFile(shardPath(c.cfg.path, k), os.O_RDWR|os.O_APPEND, 0o644)
		if err != nil {
			jr.closeFiles()
			return nil, err
		}
		jr.shards = append(jr.shards, &jshard{f: f, w: bufio.NewWriter(f), size: c.sizes[k]})
	}
	return jr, nil
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

// commit fsyncs every shard that took appends since the last round: one
// group commit. The write lock is held only to collect dirty files —
// fsync runs outside it, so appends keep landing while the disk syncs.
func (jr *journal) commit() {
	jr.mu.Lock()
	var files []*os.File
	if jr.err == nil {
		for _, sh := range jr.shards {
			if sh.dirty {
				sh.dirty = false
				files = append(files, sh.f)
			}
		}
	}
	jr.mu.Unlock()
	if len(files) == 0 {
		return
	}
	start := time.Now()
	for _, f := range files {
		if err := f.Sync(); err != nil {
			jr.fail(err)
			return
		}
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
func (jr *journal) append(id string, rec []byte) (RecLoc, bool) {
	jr.mu.Lock()
	defer jr.mu.Unlock()
	if jr.err != nil {
		return RecLoc{}, false
	}
	k := shardIndex(id, len(jr.shards))
	sh := jr.shards[k]
	loc := RecLoc{Shard: k, Off: sh.size, Len: len(rec)}
	var start time.Time
	grouped := jr.cfg.group > 0
	if !grouped && jr.fsync != nil {
		start = time.Now()
	}
	if err := writeRecord(sh.w, rec); err != nil {
		jr.latch(err)
		return RecLoc{}, false
	}
	sh.size += int64(len(rec)) + 1
	if err := sh.w.Flush(); err != nil {
		jr.latch(err)
		return RecLoc{}, false
	}
	if grouped {
		sh.dirty = true
	} else {
		if err := sh.f.Sync(); err != nil {
			jr.latch(err)
			return RecLoc{}, false
		}
		if jr.fsync != nil {
			jr.fsync.Observe(time.Since(start).Seconds())
		}
	}
	jr.appends.Inc()
	return loc, true
}

// readRecord reads the record at loc back out of the journal. The
// target shard's buffer is flushed first so a just-appended record is
// readable; the pread itself runs outside the lock.
func (jr *journal) readRecord(loc RecLoc) ([]byte, error) {
	jr.mu.Lock()
	if loc.Shard < 0 || loc.Shard >= len(jr.shards) {
		jr.mu.Unlock()
		return nil, fmt.Errorf("distwork: record shard %d out of range", loc.Shard)
	}
	sh := jr.shards[loc.Shard]
	if err := sh.w.Flush(); err != nil {
		jr.latch(err)
		jr.mu.Unlock()
		return nil, err
	}
	f := sh.f
	jr.mu.Unlock()
	buf := make([]byte, loc.Len)
	if _, err := f.ReadAt(buf, loc.Off); err != nil {
		return nil, fmt.Errorf("distwork: reading journal record at shard %d offset %d: %w", loc.Shard, loc.Off, err)
	}
	return buf, nil
}

func (jr *journal) closeFiles() {
	for _, sh := range jr.shards {
		if sh.f != nil {
			sh.f.Close()
			sh.f = nil
		}
	}
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
	for _, sh := range jr.shards {
		if sh.f == nil {
			continue
		}
		if ferr := sh.w.Flush(); ferr != nil {
			jr.latch(ferr)
			if err == nil {
				err = ferr
			}
		}
		if serr := sh.f.Sync(); serr != nil {
			jr.latch(serr)
			if err == nil {
				err = serr
			}
		}
		if cerr := sh.f.Close(); cerr != nil {
			jr.latch(cerr)
			if err == nil {
				err = cerr
			}
		}
		sh.f = nil
	}
	return err
}
