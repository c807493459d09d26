package strmap

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// lockArray is an immutable-header stripe array; resizing installs a new,
// larger one so stripe granularity keeps pace with the table (Fig. 13.10).
type lockArray struct {
	locks []sync.Mutex
}

// RefinableMap refines its stripes on resize: the lock array grows with
// the table, so a stripe covers a constant number of buckets. A resizer
// announces itself, waits for in-flight operations to drain, then swaps
// both arrays — the same protocol as hashset.RefinableHashSet.
type RefinableMap struct {
	hash     func(string) uint64
	resizing atomic.Bool                // the "owner mark": a resize is announced
	locks    atomic.Pointer[lockArray]  // current stripe array
	table    atomic.Pointer[chainTable] // current bucket table
}

var _ Map = (*RefinableMap)(nil)

// NewRefinableMap returns an empty map with the given power-of-two
// initial capacity.
func NewRefinableMap(capacity int) *RefinableMap {
	m := &RefinableMap{hash: Hash}
	m.table.Store(newChainTable(capacity))
	m.locks.Store(&lockArray{locks: make([]sync.Mutex, capacity)})
	return m
}

// acquire locks the stripe for hash h against the *current* arrays,
// retrying if a resize was announced or swapped the arrays underneath us.
func (m *RefinableMap) acquire(h uint64) *sync.Mutex {
	for {
		for m.resizing.Load() {
			runtime.Gosched() // a resize is announced; stand back
		}
		oldLocks := m.locks.Load()
		l := &oldLocks.locks[int(h&uint64(len(oldLocks.locks)-1))]
		l.Lock()
		if !m.resizing.Load() && m.locks.Load() == oldLocks {
			return l
		}
		l.Unlock()
	}
}

// Set maps key to val, reporting whether the key was absent.
func (m *RefinableMap) Set(key string, val int64) bool {
	h := m.hash(key)
	l := m.acquire(h)
	t := m.table.Load()
	ok := t.set(h, key, val)
	grow := ok && t.policy()
	l.Unlock()
	if grow {
		m.resize()
	}
	return ok
}

// Get returns the value at key.
func (m *RefinableMap) Get(key string) (int64, bool) {
	h := m.hash(key)
	l := m.acquire(h)
	defer l.Unlock()
	return m.table.Load().get(h, key)
}

// Del removes key, reporting whether it was present.
func (m *RefinableMap) Del(key string) bool {
	h := m.hash(key)
	l := m.acquire(h)
	defer l.Unlock()
	return m.table.Load().del(h, key)
}

// Range enumerates entries until f returns false, using the resize
// protocol to quiesce: announce ownership, then lock every current
// stripe. No table or stripe swap happens, so in-flight operations just
// see an unusually long resize that changed nothing.
func (m *RefinableMap) Range(f func(key string, val int64) bool) {
	for !m.resizing.CompareAndSwap(false, true) {
		runtime.Gosched() // wait out a real resize
	}
	defer m.resizing.Store(false)
	old := m.locks.Load()
	for i := range old.locks {
		old.locks[i].Lock()
	}
	defer func() {
		for i := range old.locks {
			old.locks[i].Unlock()
		}
	}()
	m.table.Load().rangeEntries(f)
}

// resize announces itself, quiesces every stripe, then installs a doubled
// table and a matching doubled stripe array.
func (m *RefinableMap) resize() {
	// Only one resizer at a time: the announcement CAS is the election.
	if !m.resizing.CompareAndSwap(false, true) {
		return // someone else is on it
	}
	defer m.resizing.Store(false)

	t := m.table.Load()
	if !t.policy() {
		return // a prior resize already fixed it
	}
	// Quiesce: once resizing is set, no new acquire succeeds; wait for the
	// holders of each current stripe to drain by locking through them.
	old := m.locks.Load()
	for i := range old.locks {
		old.locks[i].Lock()
	}

	next := newChainTable(2 * len(t.buckets))
	for _, n := range t.buckets {
		for n != nil {
			after := n.next
			b := next.bucketOf(n.hash)
			n.next = next.buckets[b]
			next.buckets[b] = n
			n = after
		}
	}
	next.size.Store(t.size.Load())
	m.table.Store(next)
	m.locks.Store(&lockArray{locks: make([]sync.Mutex, 2*len(old.locks))})

	for i := range old.locks {
		old.locks[i].Unlock()
	}
}
