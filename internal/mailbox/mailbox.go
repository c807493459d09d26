// Package mailbox provides the MPSC handoff between the server's
// connection goroutines (many producers) and whoever holds a shard's
// combiner lock (one consumer at a time): a bounded queue made of one
// mutex and two slices, plus a spin-then-park wait for the shard's
// fallback goroutine.
//
// Producers append to the in slice under the mutex. The consumer takes
// from a private out slice with no synchronization, and only when out
// runs dry does it lock once to swap the two slices whole — one lock per
// run of batches, not per batch. An atomic size (published, not yet
// taken) serves the empty poll and the parked waiter without the mutex.
//
// A mutex is enough because the mailbox is the hot path's least-used
// corner. The handoff win the server measures (EXPERIMENTS.md E19) comes
// from the protocol — publish quietly, let the submitting caller combine
// under the shard lock, never issue a wakeup nobody needs — and under it
// 99.5–99.99 % of combining passes run on the caller, the handoff costing
// 0.3–2.8 % of a batch. This queue replaced a lock-free Vyukov ring and
// tied it end to end on every workload (E19 addendum).
//
// Shutdown is a stop flag, not a closed channel: Close fails every later
// PutQuiet while the consumer keeps draining. Publish and the closed
// check share the mutex, so a value is either refused or visible to the
// drain — none is lost.
package mailbox

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Mailbox is the bounded MPSC queue plus the consumer-side wait. Any
// goroutine may PutQuiet, Kick and Close; TryGet callers must be
// serialized (the server's per-shard combiner lock does it);
// WaitNonempty is for the one dedicated fallback consumer.
type Mailbox[T any] struct {
	mu sync.Mutex
	in []T // published, not yet swapped out; guarded by mu

	// out[pos:] is the run being consumed: touched only by TryGet, so
	// guarded by whatever serializes its callers.
	out []T
	pos int

	// size counts values published and not yet taken: len(in) plus the
	// rest of out. Producers raise it inside mu after the append and only
	// the consumer lowers it, so size > 0 with out exhausted proves in is
	// non-empty. closed is set inside mu, after every accepted publish: a
	// reader that sees closed also sees the final size.
	size     atomic.Int64
	closed   atomic.Bool
	capacity int64

	// parked is the futex-style handshake word: the waiter sets it before
	// blocking, and whoever CASes it back down owns the single wake send,
	// so wake never holds more than one signal.
	parked atomic.Uint32
	wake   chan struct{}

	// For STATS: spins counts waits resolved in the spin phase (≥ 1 empty
	// poll, no park), parks the times the budget ran out and it blocked.
	spinBudget int
	spins      atomic.Int64
	parks      atomic.Int64
}

// DefaultSpinBudget is the empty-poll budget New substitutes for 0: it
// rides out a producer one scheduler quantum away, yet an idle shard
// parks quickly. Each spin yields, costing scheduler passes, not watts.
const DefaultSpinBudget = 64

// New builds a mailbox holding at most capacity unconsumed values.
// spinBudget is the number of empty polls WaitNonempty makes before
// parking: 0 selects DefaultSpinBudget, negative parks on the first.
func New[T any](capacity, spinBudget int) *Mailbox[T] {
	if spinBudget == 0 {
		spinBudget = DefaultSpinBudget
	} else if spinBudget < 0 {
		spinBudget = 0
	}
	return &Mailbox[T]{
		in:         make([]T, 0, capacity),
		out:        make([]T, 0, capacity),
		capacity:   int64(capacity),
		wake:       make(chan struct{}, 1),
		spinBudget: spinBudget,
	}
}

// SpinBudget reports the resolved empty-poll budget, Spins the waits
// resolved in the spin phase, Parks how often the waiter blocked.
func (m *Mailbox[T]) SpinBudget() int { return m.spinBudget }
func (m *Mailbox[T]) Spins() int64    { return m.spins.Load() }
func (m *Mailbox[T]) Parks() int64    { return m.parks.Load() }

// PutQuiet publishes v, yielding while the mailbox is full, and never
// wakes the parked consumer; false means closed, v not published. It is
// the producer half of caller-combining: a producer about to drain the
// mailbox itself leaves the consumer parked, Kicking only if it cannot.
func (m *Mailbox[T]) PutQuiet(v T) bool {
	for {
		m.mu.Lock()
		closed, room := m.closed.Load(), m.size.Load() < m.capacity
		if room && !closed {
			m.in = append(m.in, v)
			m.size.Add(1)
		}
		m.mu.Unlock()
		if closed || room {
			return !closed
		}
		runtime.Gosched() // bounded backoff: a consumer needs the CPU to drain
	}
}

// Kick wakes the parked consumer, if any, without publishing. A producer
// that published quietly and then lost the combiner race cannot know
// whether the active combiner's final drain saw its value, so it kicks
// the dedicated consumer to re-check. Only the CAS winner sends, and the
// waiter takes the signal before it can re-park: the send cannot block.
func (m *Mailbox[T]) Kick() {
	if m.parked.Load() == 1 && m.parked.CompareAndSwap(1, 0) {
		m.wake <- struct{}{}
	}
}

// TryGet takes the next published value without waiting; callers must
// be serialized. The empty poll is one atomic load, and the mutex is
// taken only to swap in a fresh run.
func (m *Mailbox[T]) TryGet() (T, bool) {
	var zero T
	if m.pos == len(m.out) {
		if m.size.Load() == 0 {
			return zero, false // empty, or a producer is mid-publish
		}
		m.mu.Lock()
		m.in, m.out = m.out[:0], m.in
		m.mu.Unlock()
		m.pos = 0
	}
	v := m.out[m.pos]
	m.out[m.pos] = zero // drop the reference for GC
	m.pos++
	m.size.Add(-1)
	return v, true
}

// WaitNonempty blocks — spin phase, then park — until the mailbox holds
// a published value (true) or is closed and drained (false). It
// consumes nothing and reads only the atomics; the caller takes with
// TryGet. A true result is a hint, not a reservation: a competing
// combiner may take the value first, and the caller just waits again.
// A woken waiter re-parks without a fresh spin phase: wakes follow only
// a publish or a close, so finding neither means a combiner got there.
func (m *Mailbox[T]) WaitNonempty() bool {
	spins := 0
	for {
		if m.size.Load() > 0 {
			if spins > 0 {
				m.spins.Add(1)
			}
			return true
		}
		if m.closed.Load() {
			return m.size.Load() > 0 // every accepted publish precedes closed
		}
		if spins < m.spinBudget {
			spins++
			runtime.Gosched()
			continue
		}
		// Announce the park, then re-check: a Kick or Close after the
		// announcement sees parked==1 and wakes, a publish or close before
		// it is caught by the re-check. Both cannot miss.
		m.parked.Store(1)
		if m.size.Load() > 0 || m.closed.Load() {
			if !m.parked.CompareAndSwap(1, 0) {
				<-m.wake // a producer won the flag: consume its wake
			}
			continue
		}
		m.parks.Add(1)
		<-m.wake
		spins = m.spinBudget // woken: re-check once, no fresh spin phase
	}
}

// Close sets the stop flag and wakes the consumer. Producers fail from
// here on, including one backing off against a full mailbox; published
// values remain for the consumer to drain. Idempotent.
func (m *Mailbox[T]) Close() {
	m.mu.Lock()
	m.closed.Store(true)
	m.mu.Unlock()
	m.Kick()
}

// Closed reports whether Close has been called.
func (m *Mailbox[T]) Closed() bool { return m.closed.Load() }
