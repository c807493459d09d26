package hashset

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

// RefinableHashSet (Fig. 13.10–13.12) refines its stripes on resize: unlike
// StripedHashSet, the lock array grows with the table, so a stripe covers a
// constant number of buckets. A resizer first announces itself (the book's
// AtomicMarkableReference owner), waits for in-flight operations to drain,
// then swaps both arrays.
type RefinableHashSet struct {
	resizing atomic.Bool                 // the "owner mark": a resize is announced
	locks    atomic.Pointer[lockArray]   // current stripe array
	table    atomic.Pointer[bucketTable] // current bucket table
}

var _ Set = (*RefinableHashSet)(nil)

// NewRefinableHashSet returns an empty set with the given power-of-two
// initial capacity.
func NewRefinableHashSet(capacity int) *RefinableHashSet {
	s := &RefinableHashSet{}
	s.table.Store(newBucketTable(capacity))
	s.locks.Store(&lockArray{locks: make([]sync.Mutex, capacity)})
	return s
}

// acquire locks the stripe for x against the *current* arrays, retrying if
// a resize was announced or swapped the arrays underneath us (the book's
// acquire loop).
func (s *RefinableHashSet) acquire(x int) (*lockArray, *sync.Mutex) {
	for {
		for s.resizing.Load() {
			runtime.Gosched() // a resize is announced; stand back
		}
		oldLocks := s.locks.Load()
		l := &oldLocks.locks[hashIndex(x, len(oldLocks.locks))]
		l.Lock()
		if !s.resizing.Load() && s.locks.Load() == oldLocks {
			return oldLocks, l
		}
		l.Unlock()
	}
}

// Range enumerates items until f returns false, using the resize
// protocol to quiesce: announce ownership, lock every current stripe,
// walk, release. Nothing is swapped.
func (s *RefinableHashSet) Range(f func(x int) bool) {
	for !s.resizing.CompareAndSwap(false, true) {
		runtime.Gosched() // wait out a real resize
	}
	defer s.resizing.Store(false)
	old := s.locks.Load()
	for i := range old.locks {
		old.locks[i].Lock()
	}
	defer func() {
		for i := range old.locks {
			old.locks[i].Unlock()
		}
	}()
	s.table.Load().rangeItems(f)
}

// Add inserts x, reporting whether it was absent.
func (s *RefinableHashSet) Add(x int) bool {
	_, l := s.acquire(x)
	t := s.table.Load()
	ok := t.add(x)
	grow := ok && t.policy()
	l.Unlock()
	if grow {
		s.resize()
	}
	return ok
}

// Remove deletes x, reporting whether it was present.
func (s *RefinableHashSet) Remove(x int) bool {
	_, l := s.acquire(x)
	defer l.Unlock()
	return s.table.Load().remove(x)
}

// Contains reports membership of x.
func (s *RefinableHashSet) Contains(x int) bool {
	_, l := s.acquire(x)
	defer l.Unlock()
	return s.table.Load().contains(x)
}

// resize announces itself, quiesces every stripe, then installs a doubled
// table and a matching doubled stripe array.
func (s *RefinableHashSet) resize() {
	// Only one resizer at a time: the announcement CAS is the election.
	if !s.resizing.CompareAndSwap(false, true) {
		return // someone else is on it
	}
	defer s.resizing.Store(false)

	t := s.table.Load()
	if !t.policy() {
		return // a prior resize already fixed it
	}
	// Quiesce: once resizing is set, no new acquire succeeds; wait for the
	// holders of each current stripe to drain by locking through them.
	old := s.locks.Load()
	for i := range old.locks {
		old.locks[i].Lock()
	}

	next := newBucketTable(2 * len(t.buckets))
	for _, bucket := range t.buckets {
		for _, v := range bucket {
			b := next.bucketOf(v)
			next.buckets[b] = append(next.buckets[b], v)
		}
	}
	next.size.Store(t.size.Load())
	s.table.Store(next)
	s.locks.Store(&lockArray{locks: make([]sync.Mutex, 2*len(old.locks))})

	for i := range old.locks {
		old.locks[i].Unlock()
	}
}
