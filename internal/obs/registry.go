// Package obs is the operational observability layer of the repository:
// a zero-dependency, allocation-conscious metrics registry that renders
// the Prometheus text exposition format, and a bounded flight recorder
// whose last-N ring of system events is dumped to a postmortem JSON
// artifact when something goes wrong.
//
// The registry observes the *system running the simulator* — the daemon,
// its job queue, its HTTP surface — where PR 3's telemetry layer observes
// the *simulation*. The same zero-interference discipline applies: every
// hook is nil-safe (a nil *Registry or nil *FlightRecorder makes every
// instrumentation call a no-op), instrumented code never branches on
// whether observation is attached, and attaching a registry changes no
// simulated byte (pinned by TestObsDoesNotChangeOutputs).
//
// Series are named in full Prometheus notation, labels included:
//
//	reg.Counter(`elastisimd_tasks_submitted_total`).Inc()
//	reg.Gauge(`elastisimd_tasks{state="pending"}`, func() float64 { ... })
//	reg.Histogram(`elastisimd_journal_fsync_seconds`, obs.DefLatencyBuckets).Observe(dt)
//
// Creation is get-or-create: calling Counter with a name that already
// exists returns the same counter, so independent subsystems (or many
// sessions sharing one daemon registry) can grab their series without
// coordination. Mutation is lock-free (atomics); the registry lock is
// taken only on series creation and on scrape.
package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing series. The nil counter (from a
// nil registry) accepts Inc/Add as no-ops, so call sites need no guards.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 for the nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a series that can go up and down. It is either *settable*
// (Set/Add/SetMax mutate an atomic float) or *callback-backed* (a
// function sampled at scrape time — the idiom for exporting an existing
// counter without re-counting it). The nil gauge is a no-op.
type Gauge struct {
	bits atomic.Uint64 // settable value, math.Float64bits
	fn   func() float64
}

// Set stores v. It is ignored on callback gauges.
func (g *Gauge) Set(v float64) {
	if g == nil || g.fn != nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// SetMax raises the gauge to v if v is larger — a high-water mark.
func (g *Gauge) SetMax(v float64) {
	if g == nil || g.fn != nil {
		return
	}
	for {
		old := g.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the gauge's current value, sampling the callback if one
// is attached.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	if g.fn != nil {
		return g.fn()
	}
	return math.Float64frombits(g.bits.Load())
}

// DefLatencyBuckets are histogram bounds tuned for I/O and request
// latencies in seconds: 100µs to ~10s, roughly ×3 per step.
var DefLatencyBuckets = []float64{0.0001, 0.0003, 0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1, 3, 10}

// Histogram is a fixed-bucket histogram. Observe is lock-free and
// allocation-free: one linear bucket scan (buckets are few), two atomic
// adds, one CAS loop for the sum. The nil histogram is a no-op.
type Histogram struct {
	bounds  []float64 // sorted upper bounds; +Inf bucket is implicit
	buckets []atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64 // math.Float64bits
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// series is one named time series of any kind.
type series struct {
	name   string // full name including labels
	family string // name up to the label block
	labels string // label block without braces ("" when unlabeled)
	c      *Counter
	g      *Gauge
	h      *Histogram
}

func (s *series) typ() string {
	switch {
	case s.c != nil:
		return "counter"
	case s.h != nil:
		return "histogram"
	default:
		return "gauge"
	}
}

// Registry holds named series and renders them in Prometheus text
// exposition format. The zero value is not usable; create with
// NewRegistry. All methods are safe for concurrent use, and every method
// on a nil *Registry returns a nil (no-op) instrument, which is how
// instrumented packages support "observability detached" at zero cost.
type Registry struct {
	mu     sync.Mutex
	series map[string]*series
	help   map[string]string // family → HELP text
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{series: make(map[string]*series), help: make(map[string]string)}
}

// Help attaches HELP text to a metric family (the series name without its
// label block). Safe to call before or after the series exist.
func (r *Registry) Help(family, text string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.help[family] = text
	r.mu.Unlock()
}

// Counter returns the counter named name (full Prometheus notation,
// labels included), creating it on first use. It panics if the name is
// malformed or already names a different metric kind — both are
// programmer errors, caught by the first scrape in any test.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	s := r.get(name, "counter")
	return s.c
}

// Gauge returns the gauge named name, creating it on first use. A non-nil
// fn makes it callback-backed: the function is sampled at scrape time,
// which is how existing counters (kernel stats, queue depths) are
// exported without re-counting. fn is ignored when the gauge exists.
func (r *Registry) Gauge(name string, fn func() float64) *Gauge {
	if r == nil {
		return nil
	}
	s := r.getOrCreate(name, func(se *series) { se.g = &Gauge{fn: fn} }, "gauge")
	return s.g
}

// Histogram returns the fixed-bucket histogram named name, creating it on
// first use with the given sorted upper bounds (a +Inf bucket is
// implicit). bounds are ignored when the histogram exists.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	s := r.getOrCreate(name, func(se *series) {
		bs := make([]float64, len(bounds))
		copy(bs, bounds)
		for i := 1; i < len(bs); i++ {
			if bs[i] <= bs[i-1] {
				panic(fmt.Sprintf("obs: histogram %q bounds not strictly increasing", name))
			}
		}
		se.h = &Histogram{bounds: bs, buckets: make([]atomic.Uint64, len(bs)+1)}
	}, "histogram")
	return s.h
}

func (r *Registry) get(name, typ string) *series {
	return r.getOrCreate(name, func(se *series) { se.c = &Counter{} }, typ)
}

func (r *Registry) getOrCreate(name string, init func(*series), typ string) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.series[name]; ok {
		if s.typ() != typ {
			panic(fmt.Sprintf("obs: series %q already registered as %s, requested as %s", name, s.typ(), typ))
		}
		return s
	}
	family, labels, err := splitName(name)
	if err != nil {
		panic(fmt.Sprintf("obs: %v", err))
	}
	s := &series{name: name, family: family, labels: labels}
	init(s)
	r.series[name] = s
	return s
}

// splitName validates a full series name and splits it into the family
// name and the label block (without braces).
func splitName(name string) (family, labels string, err error) {
	open := strings.IndexByte(name, '{')
	family = name
	if open >= 0 {
		if !strings.HasSuffix(name, "}") {
			return "", "", fmt.Errorf("series %q: unterminated label block", name)
		}
		family = name[:open]
		labels = name[open+1 : len(name)-1]
		if err := validateLabels(labels); err != nil {
			return "", "", fmt.Errorf("series %q: %v", name, err)
		}
	}
	if !validMetricName(family) {
		return "", "", fmt.Errorf("series %q: invalid metric name %q", name, family)
	}
	return family, labels, nil
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" || s == "le" { // le is reserved for histogram buckets
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// validateLabels checks a label block of the form k="v",k2="v2". Values
// must not contain raw double quotes, backslashes, or newlines — keep
// label values simple instead of escaping them.
func validateLabels(block string) error {
	rest := block
	for rest != "" {
		eq := strings.IndexByte(rest, '=')
		if eq < 0 {
			return fmt.Errorf("label %q: missing '='", rest)
		}
		key := rest[:eq]
		if !validLabelName(key) {
			return fmt.Errorf("invalid label name %q", key)
		}
		rest = rest[eq+1:]
		if len(rest) < 2 || rest[0] != '"' {
			return fmt.Errorf("label %q: value must be double-quoted", key)
		}
		end := strings.IndexByte(rest[1:], '"')
		if end < 0 {
			return fmt.Errorf("label %q: unterminated value", key)
		}
		val := rest[1 : 1+end]
		if strings.ContainsAny(val, "\\\n") {
			return fmt.Errorf("label %q: value %q contains unsupported escapes", key, val)
		}
		rest = rest[end+2:]
		if rest != "" {
			if rest[0] != ',' {
				return fmt.Errorf("labels: expected ',' at %q", rest)
			}
			rest = rest[1:]
		}
	}
	return nil
}

// WritePrometheus renders every series in Prometheus text exposition
// format (version 0.0.4): families sorted by name, one # HELP / # TYPE
// header each, histogram families expanded into cumulative _bucket series
// plus _sum and _count. Scrape-time allocation is fine; mutation-time
// allocation is what the instruments avoid.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	byFamily := make(map[string][]*series)
	families := make([]string, 0, len(r.series))
	for _, s := range r.series {
		if _, ok := byFamily[s.family]; !ok {
			families = append(families, s.family)
		}
		byFamily[s.family] = append(byFamily[s.family], s)
	}
	help := make(map[string]string, len(r.help))
	for k, v := range r.help {
		help[k] = v
	}
	r.mu.Unlock()

	sort.Strings(families)
	bw := bufio.NewWriter(w)
	for _, fam := range families {
		ss := byFamily[fam]
		sort.Slice(ss, func(i, j int) bool { return ss[i].name < ss[j].name })
		if h := help[fam]; h != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", fam, h)
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", fam, ss[0].typ())
		for _, s := range ss {
			if s.typ() != ss[0].typ() {
				return fmt.Errorf("obs: family %s mixes %s and %s series", fam, ss[0].typ(), s.typ())
			}
			writeSeries(bw, s)
		}
	}
	return bw.Flush()
}

func writeSeries(w *bufio.Writer, s *series) {
	switch {
	case s.c != nil:
		fmt.Fprintf(w, "%s %s\n", s.name, formatFloat(float64(s.c.Value())))
	case s.g != nil:
		fmt.Fprintf(w, "%s %s\n", s.name, formatFloat(s.g.Value()))
	case s.h != nil:
		cum := uint64(0)
		for i := range s.h.buckets {
			cum += s.h.buckets[i].Load()
			le := "+Inf"
			if i < len(s.h.bounds) {
				le = formatFloat(s.h.bounds[i])
			}
			fmt.Fprintf(w, "%s %d\n", labeledName(s, "_bucket", `le="`+le+`"`), cum)
		}
		fmt.Fprintf(w, "%s %s\n", labeledName(s, "_sum", ""), formatFloat(s.h.Sum()))
		fmt.Fprintf(w, "%s %d\n", labeledName(s, "_count", ""), s.h.Count())
	}
}

// labeledName builds family+suffix with the series' labels plus an extra
// label merged in.
func labeledName(s *series, suffix, extra string) string {
	labels := s.labels
	if extra != "" {
		if labels != "" {
			labels += ","
		}
		labels += extra
	}
	if labels == "" {
		return s.family + suffix
	}
	return s.family + suffix + "{" + labels + "}"
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
