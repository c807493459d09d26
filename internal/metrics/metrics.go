// Package metrics provides the observability layer of the ampserved data
// plane: monotone event counters and latency histograms built on the
// Chapter 12 shared counters from package counting, instead of a plain
// atomic per metric.
//
// A metrics.Counter wraps any counting.Counter ticket dispenser: every Inc
// takes one ticket, so after quiescence the highest ticket+1 is exactly the
// number of events. This lets the server dogfood the combining tree or a
// counting network as its own instrumentation, with the single-cell
// CASCounter as the default. Histograms are arrays of such counters over
// power-of-two buckets: Histogram buckets latencies, SizeHistogram
// buckets integer sizes (the server's combined-batch sizes).
//
// Like the combining tree itself, counters are driven by a bounded set of
// threads: Inc and Observe take the caller's core.ThreadID (the server
// passes the owning shard's ID).
package metrics

import (
	"fmt"
	"math/bits"
	"strings"
	"sync/atomic"
	"time"

	"amp/internal/core"
	"amp/internal/counting"
)

// Counter counts events on top of a counting.Counter ticket dispenser.
type Counter struct {
	c  counting.Counter
	hi atomic.Int64 // highest ticket observed + 1 == events counted
}

// NewCounter wraps the given ticket dispenser; nil means a fresh
// CASCounter.
func NewCounter(c counting.Counter) *Counter {
	if c == nil {
		c = &counting.CASCounter{}
	}
	return &Counter{c: c}
}

// Inc records one event on behalf of thread me. The thread ID must be
// below the underlying counter's Capacity (relevant to the combining
// tree; single-cell and network counters ignore it).
func (m *Counter) Inc(me core.ThreadID) {
	n := m.c.GetAndIncrement(me) + 1
	for {
		cur := m.hi.Load()
		if n <= cur || m.hi.CompareAndSwap(cur, n) {
			return
		}
	}
}

// bulkTickets is the optional fast path for IncN: single-cell counters
// (counting.CASCounter) can hand out n consecutive tickets with one
// fetch-and-add. Backends without it — the combining tree and the
// counting networks, whose gap-free guarantee is per-ticket — fall back
// to n single tickets, preserving their semantics exactly.
type bulkTickets interface {
	GetAndAdd(me core.ThreadID, n int64) int64
}

// IncN records n events on behalf of thread me in one call. Equivalent
// to n calls of Inc but, on bulk-capable backends, with one ticket
// fetch and one high-water fold instead of n of each — the server uses
// it to coalesce runs of identical commands inside a combined batch.
func (m *Counter) IncN(me core.ThreadID, n int64) {
	if n <= 0 {
		return
	}
	var hi int64
	if bc, ok := m.c.(bulkTickets); ok {
		hi = bc.GetAndAdd(me, n) + n
	} else {
		for i := int64(0); i < n; i++ {
			hi = m.c.GetAndIncrement(me) + 1
		}
	}
	for {
		cur := m.hi.Load()
		if hi <= cur || m.hi.CompareAndSwap(cur, hi) {
			return
		}
	}
}

// Value reports the number of events counted so far. While increments are
// in flight the value may lag by the tickets not yet folded in; after
// quiescence it is exact.
func (m *Counter) Value() int64 { return m.hi.Load() }

// logHist is the one log₂ histogram behind both exported types: counter
// buckets over a pluggable counting backend plus the sum of what was
// observed. Bucket 0 holds values ≤ 0, bucket i (i ≥ 1) holds
// [2^(i-1), 2^i), and the last bucket absorbs everything larger.
type logHist struct {
	buckets []*Counter
	sum     atomic.Int64
}

// init builds n buckets from factory (nil means CASCounter buckets).
func (h *logHist) init(n int, factory func() counting.Counter) {
	h.buckets = make([]*Counter, n)
	for i := range h.buckets {
		var c counting.Counter
		if factory != nil {
			c = factory()
		}
		h.buckets[i] = NewCounter(c)
	}
}

// logBucket maps a value to its log₂ bucket among n buckets.
func logBucket(v int64, n int) int {
	if v <= 0 {
		return 0
	}
	b := bits.Len64(uint64(v)) // 1 → 1, 2..3 → 2, 4..7 → 3, ...
	if b >= n {
		return n - 1
	}
	return b
}

// bucket adds weight to the sum and returns the counter of the bucket
// holding value v, for the caller to increment.
func (h *logHist) bucket(v, weight int64) *Counter {
	h.sum.Add(weight)
	return h.buckets[logBucket(v, len(h.buckets))]
}

// Count reports the number of samples observed.
func (h *logHist) Count() int64 {
	var n int64
	for _, b := range h.buckets {
		n += b.Value()
	}
	return n
}

// edge reports the exclusive upper edge, 2^i, of the bucket i holding the
// q·count-th sample (0 < q ≤ 1); 0 when empty. Resolution is a factor of
// two, which is all a capacity dashboard needs.
func (h *logHist) edge(q float64) int64 {
	total := h.Count()
	if total == 0 {
		return 0
	}
	rank := max(int64(q*float64(total)), 1)
	var seen int64
	for i, b := range h.buckets {
		seen += b.Value()
		if seen >= rank {
			return 1 << uint(i)
		}
	}
	return 1 << uint(len(h.buckets))
}

// histBuckets spans 1µs to ~2^24µs (≈ 16.8s); slower observations land in
// the last bucket.
const histBuckets = 25

// Histogram is a log₂-bucketed latency histogram: bucket i counts
// observations in [2^(i-1), 2^i) microseconds (bucket 0: below 1µs); the
// sum is kept in nanoseconds.
type Histogram struct{ logHist }

// NewHistogram builds a histogram whose buckets are produced by factory
// (nil means CASCounter buckets).
func NewHistogram(factory func() counting.Counter) *Histogram {
	h := &Histogram{}
	h.init(histBuckets, factory)
	return h
}

// Observe records one latency sample on behalf of thread me.
func (h *Histogram) Observe(d time.Duration, me core.ThreadID) {
	h.bucket(d.Microseconds(), int64(d)).Inc(me)
}

// ObserveN records n samples of the same latency d in one call: one sum
// add and one bulk bucket increment. The server's shard loop reads the
// clock once per run of identical commands and charges the whole run
// with ObserveN, which is what makes the amortized clock free.
func (h *Histogram) ObserveN(d time.Duration, n int64, me core.ThreadID) {
	if n > 0 {
		h.bucket(d.Microseconds(), int64(d)*n).IncN(me, n)
	}
}

// Mean reports the average observed latency (0 when empty).
func (h *Histogram) Mean() time.Duration {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / n)
}

// Quantile reports an upper bound for the q-quantile (0 < q ≤ 1): the
// upper edge of the bucket holding the q·count-th sample.
func (h *Histogram) Quantile(q float64) time.Duration {
	return time.Duration(h.edge(q)) * time.Microsecond
}

// sizeBuckets spans sizes 1 to 2^16; larger sizes land in the last
// bucket.
const sizeBuckets = 17

// SizeHistogram is a log₂-bucketed histogram of positive integer sizes.
// The server records one sample per shard wakeup: how many commands the
// flat-combining pass applied in that run, which makes the realized
// batching visible in STATS.
type SizeHistogram struct{ logHist }

// NewSizeHistogram builds a size histogram whose buckets are produced by
// factory (nil means CASCounter buckets).
func NewSizeHistogram(factory func() counting.Counter) *SizeHistogram {
	h := &SizeHistogram{}
	h.init(sizeBuckets, factory)
	return h
}

// Observe records one size sample on behalf of thread me.
func (h *SizeHistogram) Observe(n int64, me core.ThreadID) { h.bucket(n, n).Inc(me) }

// Sum reports the total of all observed sizes.
func (h *SizeHistogram) Sum() int64 { return h.sum.Load() }

// Mean reports the average observed size (0 when empty).
func (h *SizeHistogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Quantile reports an upper bound for the q-quantile (0 < q ≤ 1): the
// largest size in the bucket holding the q·count-th sample (2^i − 1 for
// bucket i, 0 when empty).
func (h *SizeHistogram) Quantile(q float64) int64 {
	return max(h.edge(q)-1, 0)
}

// Format renders the histogram as one "hist <name> count=… sum=… mean=…
// p50=… p99=…" line, in the style of Registry.Format's op lines.
func (h *SizeHistogram) Format(name string) string {
	return fmt.Sprintf("hist %s count=%d sum=%d mean=%.1f p50=%d p99=%d\n",
		name, h.Count(), h.Sum(), h.Mean(), h.Quantile(0.50), h.Quantile(0.99))
}

// Op bundles the two per-operation instruments.
type Op struct {
	name    string
	count   *Counter
	latency *Histogram
}

// Observe records one completed operation with its latency.
func (o *Op) Observe(d time.Duration, me core.ThreadID) {
	o.count.Inc(me)
	o.latency.Observe(d, me)
}

// ObserveN records n completed operations sharing one latency sample.
func (o *Op) ObserveN(d time.Duration, n int64, me core.ThreadID) {
	if n <= 0 {
		return
	}
	o.count.IncN(me, n)
	o.latency.ObserveN(d, n, me)
}

// Count reports how many operations completed.
func (o *Op) Count() int64 { return o.count.Value() }

// OpStats is one row of a Registry snapshot.
type OpStats struct {
	Name  string
	Count int64
	P50   time.Duration
	P99   time.Duration
	Mean  time.Duration
}

// Registry is a fixed set of named operations. The op set is declared at
// construction so the hot path is a read-only map lookup with no locking.
type Registry struct {
	names []string
	ops   map[string]*Op
}

// NewRegistry builds a registry with one Op per name. factory produces the
// counting backend for every counter in the registry (nil = CASCounter).
func NewRegistry(factory func() counting.Counter, names ...string) *Registry {
	r := &Registry{ops: make(map[string]*Op, len(names))}
	for _, name := range names {
		if _, dup := r.ops[name]; dup {
			panic(fmt.Sprintf("metrics: duplicate op %q", name))
		}
		var c counting.Counter
		if factory != nil {
			c = factory()
		}
		r.ops[name] = &Op{name: name, count: NewCounter(c), latency: NewHistogram(factory)}
		r.names = append(r.names, name)
	}
	return r
}

// Op returns the instrument for a registered name, panicking on unknown
// names (registration is fixed at construction by design).
func (r *Registry) Op(name string) *Op {
	op, ok := r.ops[name]
	if !ok {
		panic(fmt.Sprintf("metrics: unregistered op %q", name))
	}
	return op
}

// Snapshot returns per-op statistics in registration order.
func (r *Registry) Snapshot() []OpStats {
	out := make([]OpStats, 0, len(r.names))
	for _, name := range r.names {
		op := r.ops[name]
		out = append(out, OpStats{
			Name:  name,
			Count: op.Count(),
			P50:   op.latency.Quantile(0.50),
			P99:   op.latency.Quantile(0.99),
			Mean:  op.latency.Mean(),
		})
	}
	return out
}

// Format renders the snapshot as one "op <name> count=… p50us=… p99us=…
// meanus=…" line per op — the body of the server's STATS reply.
func (r *Registry) Format() string {
	var sb strings.Builder
	for _, s := range r.Snapshot() {
		fmt.Fprintf(&sb, "op %s count=%d p50us=%d p99us=%d meanus=%d\n",
			s.Name, s.Count, s.P50.Microseconds(), s.P99.Microseconds(), s.Mean.Microseconds())
	}
	return sb.String()
}

// FlatCounter is a single shared atomic counter for code paths with no
// dense ThreadID — e.g. the server's connection goroutines, whose
// population is unbounded and whose concurrent same-ID increments the
// width-bounded Counter backends forbid. It trades the dispensers'
// contention spreading for unconditional safety from any goroutine.
type FlatCounter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *FlatCounter) Inc() { c.v.Add(1) }

// Value reads the current total.
func (c *FlatCounter) Value() int64 { return c.v.Load() }

// External adapts the counter to an Externals row under the given name.
func (c *FlatCounter) External(name string) External {
	return External{Name: name, Read: c.Value}
}

// External is a named monotone counter whose value lives in another
// subsystem and is read through a closure — for statistics the owner
// already counts (the STM engines' commit/abort totals) and for code
// paths, like the server's connection goroutines, that have no dense
// ThreadID and therefore cannot drive the width-bounded Counter backends.
type External struct {
	Name string
	Read func() int64
}

// Externals is an ordered set of external counters.
type Externals []External

// Snapshot returns count-only OpStats rows, in order.
func (e Externals) Snapshot() []OpStats {
	out := make([]OpStats, 0, len(e))
	for _, x := range e {
		out = append(out, OpStats{Name: x.Name, Count: x.Read()})
	}
	return out
}

// Format renders the counters as "op <name> count=…" lines, matching
// Registry.Format so STATS consumers parse both the same way.
func (e Externals) Format() string {
	var sb strings.Builder
	for _, x := range e {
		fmt.Fprintf(&sb, "op %s count=%d\n", x.Name, x.Read())
	}
	return sb.String()
}
