package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Labels name one metric series within a family ({graph="default",
// mode="conditional"}). Keys and values are captured at series creation;
// the map is copied, so callers may reuse theirs.
type Labels map[string]string

// DefBuckets are the default latency histogram boundaries in seconds,
// spanning sub-millisecond cache hits to minute-long exact solves.
var DefBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// Counter is a monotonically increasing metric. The zero value is unusable;
// obtain one from Registry.Counter. Hot-path methods are allocation-free.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous value. Obtain from Registry.Gauge.
type Gauge struct {
	bits atomic.Uint64 // math.Float64bits
}

// Add adds delta (CAS loop; scrape-safe).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed buckets. Obtain from
// Registry.Histogram. Observe is allocation-free: one binary search, one
// atomic add per bucket hit, one CAS loop for the sum.
type Histogram struct {
	bounds []float64       // ascending upper bounds; +Inf is implicit
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf overflow
	sum    Gauge
	count  atomic.Uint64
}

// Observe records v (in the histogram's unit, conventionally seconds).
// NaN observations are dropped.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	// First bucket whose upper bound is ≥ v: Prometheus buckets are
	// cumulative with le (less-or-equal) semantics, so a value exactly on
	// a boundary belongs to that boundary's bucket.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// metricKind is the exposition TYPE of a family.
type metricKind string

const (
	kindCounter   metricKind = "counter"
	kindGauge     metricKind = "gauge"
	kindHistogram metricKind = "histogram"
)

// sample is one exposition line: name suffix, extra labels appended after
// the series labels (a histogram's le), and the value.
type sample struct {
	suffix string
	extra  []labelPair
	value  float64
}

// collector yields a series' samples at scrape time.
type collector interface {
	samples() []sample
}

type counterCollector struct{ c *Counter }

func (cc counterCollector) samples() []sample {
	return []sample{{value: float64(cc.c.Value())}}
}

type gaugeCollector struct{ g *Gauge }

func (gc gaugeCollector) samples() []sample {
	return []sample{{value: gc.g.Value()}}
}

type funcCollector struct{ fn func() float64 }

func (fc funcCollector) samples() []sample {
	return []sample{{value: fc.fn()}}
}

type histogramCollector struct{ h *Histogram }

func (hc histogramCollector) samples() []sample {
	h := hc.h
	out := make([]sample, 0, len(h.bounds)+3)
	cum := uint64(0)
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		out = append(out, sample{
			suffix: "_bucket",
			extra:  []labelPair{{"le", formatFloat(b)}},
			value:  float64(cum),
		})
	}
	cum += h.counts[len(h.bounds)].Load()
	out = append(out, sample{suffix: "_bucket", extra: []labelPair{{"le", "+Inf"}}, value: float64(cum)})
	out = append(out, sample{suffix: "_sum", value: h.Sum()})
	out = append(out, sample{suffix: "_count", value: float64(h.Count())})
	return out
}

type labelPair struct{ k, v string }

// series is one labeled instance within a family.
type series struct {
	labels []labelPair // sorted by key
	col    collector
}

// family is one metric name with its help, type, and series.
type family struct {
	name, help string
	kind       metricKind

	mu     sync.Mutex
	series []*series
	byKey  map[string]*series
}

// Registry holds metric families and renders them in the Prometheus text
// exposition format. Registration (Counter/Gauge/Histogram/…Func) is
// idempotent on (name, labels): asking again returns the existing
// instrument, so setup code can be re-run safely (e.g. per-graph metrics
// at registration time). It is NOT intended for per-request lookups — hold
// the returned instruments and update those.
type Registry struct {
	mu       sync.RWMutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// Counter registers (or finds) the counter name{labels}.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	c := &Counter{}
	got := r.getOrCreate(name, help, kindCounter, labels, counterCollector{c})
	if existing, ok := got.(counterCollector); ok {
		return existing.c
	}
	return c
}

// Gauge registers (or finds) the gauge name{labels}.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	g := &Gauge{}
	got := r.getOrCreate(name, help, kindGauge, labels, gaugeCollector{g})
	if existing, ok := got.(gaugeCollector); ok {
		return existing.g
	}
	return g
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — for folding in counters a subsystem already maintains (engine
// admissions, cache hits) without double instrumentation. fn must be safe
// for concurrent calls and must be monotonically non-decreasing.
func (r *Registry) CounterFunc(name, help string, labels Labels, fn func() float64) {
	r.getOrCreate(name, help, kindCounter, labels, funcCollector{fn})
}

// GaugeFunc registers a gauge read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	r.getOrCreate(name, help, kindGauge, labels, funcCollector{fn})
}

// Histogram registers (or finds) a histogram with the given ascending
// bucket upper bounds (+Inf is implicit; nil selects DefBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64, labels Labels) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("telemetry: histogram %s buckets not strictly ascending at %d", name, i))
		}
	}
	bounds := append([]float64(nil), buckets...)
	h := &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
	got := r.getOrCreate(name, help, kindHistogram, labels, histogramCollector{h})
	if existing, ok := got.(histogramCollector); ok {
		return existing.h
	}
	return h
}

// getOrCreate finds or inserts the series, returning the collector now
// registered under (name, labels) — the existing one on a repeat call.
// Mismatched type or help on an existing name panics: both indicate a
// programming error at setup time, not a runtime condition.
func (r *Registry) getOrCreate(name, help string, kind metricKind, labels Labels, col collector) collector {
	mustValidName(name)
	pairs := sortLabels(labels)
	key := labelKey(pairs)

	r.mu.Lock()
	f, ok := r.byName[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, byKey: make(map[string]*series)}
		r.families = append(r.families, f)
		r.byName[name] = f
	}
	r.mu.Unlock()
	if f.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %s re-registered as %s (was %s)", name, kind, f.kind))
	}

	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.byKey[key]; ok {
		return s.col
	}
	s := &series{labels: pairs, col: col}
	f.series = append(f.series, s)
	f.byKey[key] = s
	return col
}

// PruneLabel removes every series carrying the label pair key=value, in
// every family — how a serving layer drops a graph's metrics when the
// graph is evicted. Families left empty stay registered (their HELP/TYPE
// header is still emitted, which is valid exposition).
func (r *Registry) PruneLabel(key, value string) {
	r.mu.RLock()
	fams := append([]*family(nil), r.families...)
	r.mu.RUnlock()
	for _, f := range fams {
		f.mu.Lock()
		kept := f.series[:0]
		for _, s := range f.series {
			if hasLabel(s.labels, key, value) {
				delete(f.byKey, labelKey(s.labels))
			} else {
				kept = append(kept, s)
			}
		}
		f.series = kept
		f.mu.Unlock()
	}
}

func hasLabel(pairs []labelPair, key, value string) bool {
	for _, p := range pairs {
		if p.k == key && p.v == value {
			return true
		}
	}
	return false
}

// WritePrometheus renders every family in the text exposition format
// (version 0.0.4): "# HELP"/"# TYPE" once per family, then one line per
// sample, series in registration order. Values across series are read
// independently (no global lock), the usual Prometheus semantics.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	fams := append([]*family(nil), r.families...)
	r.mu.RUnlock()

	var b strings.Builder
	for _, f := range fams {
		b.Reset()
		b.WriteString("# HELP ")
		b.WriteString(f.name)
		b.WriteByte(' ')
		b.WriteString(escapeHelp(f.help))
		b.WriteString("\n# TYPE ")
		b.WriteString(f.name)
		b.WriteByte(' ')
		b.WriteString(string(f.kind))
		b.WriteByte('\n')

		f.mu.Lock()
		ser := append([]*series(nil), f.series...)
		f.mu.Unlock()
		for _, s := range ser {
			for _, smp := range s.col.samples() {
				b.WriteString(f.name)
				b.WriteString(smp.suffix)
				writeLabels(&b, s.labels, smp.extra)
				b.WriteByte(' ')
				b.WriteString(formatFloat(smp.value))
				b.WriteByte('\n')
			}
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

func writeLabels(b *strings.Builder, pairs, extra []labelPair) {
	if len(pairs)+len(extra) == 0 {
		return
	}
	b.WriteByte('{')
	first := true
	for _, set := range [][]labelPair{pairs, extra} {
		for _, p := range set {
			if !first {
				b.WriteByte(',')
			}
			first = false
			b.WriteString(p.k)
			b.WriteString(`="`)
			b.WriteString(escapeLabel(p.v))
			b.WriteByte('"')
		}
	}
	b.WriteByte('}')
}

// formatFloat renders a value the way Prometheus expects: shortest
// round-trip representation, infinities as ±Inf.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the exposition format: backslash,
// double-quote, and newline.
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp escapes help text: backslash and newline.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// sortLabels validates and sorts a label set into canonical order.
func sortLabels(labels Labels) []labelPair {
	if len(labels) == 0 {
		return nil
	}
	pairs := make([]labelPair, 0, len(labels))
	for k, v := range labels {
		mustValidName(k)
		pairs = append(pairs, labelPair{k, v})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	return pairs
}

func labelKey(pairs []labelPair) string {
	var b strings.Builder
	for _, p := range pairs {
		b.WriteString(p.k)
		b.WriteByte(1)
		b.WriteString(p.v)
		b.WriteByte(2)
	}
	return b.String()
}

// mustValidName enforces the Prometheus metric/label name charset
// [a-zA-Z_:][a-zA-Z0-9_:]*. Names are compile-time constants in callers,
// so a violation is a programming error — panic at setup.
func mustValidName(name string) {
	if name == "" {
		panic("telemetry: empty metric or label name")
	}
	for i, c := range name {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			panic(fmt.Sprintf("telemetry: invalid metric or label name %q", name))
		}
	}
}
