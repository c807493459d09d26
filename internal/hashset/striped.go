package hashset

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// bucketTable is the sequential core shared by the lock-based sets: a
// power-of-two slice of unsorted buckets.
type bucketTable struct {
	buckets [][]int
	size    atomic.Int64 // updated under per-stripe locks, so it must be atomic
}

func newBucketTable(capacity int) *bucketTable {
	if capacity < 2 || capacity&(capacity-1) != 0 {
		panic(fmt.Sprintf("hashset: capacity must be a power of two >= 2, got %d", capacity))
	}
	return &bucketTable{buckets: make([][]int, capacity)}
}

func (t *bucketTable) bucketOf(x int) int { return hashIndex(x, len(t.buckets)) }

func (t *bucketTable) contains(x int) bool {
	for _, v := range t.buckets[t.bucketOf(x)] {
		if v == x {
			return true
		}
	}
	return false
}

func (t *bucketTable) add(x int) bool {
	b := t.bucketOf(x)
	for _, v := range t.buckets[b] {
		if v == x {
			return false
		}
	}
	t.buckets[b] = append(t.buckets[b], x)
	t.size.Add(1)
	return true
}

func (t *bucketTable) remove(x int) bool {
	b := t.bucketOf(x)
	for i, v := range t.buckets[b] {
		if v == x {
			last := len(t.buckets[b]) - 1
			t.buckets[b][i] = t.buckets[b][last]
			t.buckets[b] = t.buckets[b][:last]
			t.size.Add(-1)
			return true
		}
	}
	return false
}

// grow rehashes into a table twice the size.
func (t *bucketTable) grow() {
	next := newBucketTable(2 * len(t.buckets))
	for _, bucket := range t.buckets {
		for _, v := range bucket {
			next.buckets[next.bucketOf(v)] = append(next.buckets[next.bucketOf(v)], v)
		}
	}
	t.buckets = next.buckets
}

// policy is the book's resize trigger: average bucket length exceeds 4.
func (t *bucketTable) policy() bool {
	return t.size.Load()/int64(len(t.buckets)) > 4
}

// rangeItems calls f for every item until f returns false. Callers must
// hold whatever locks cover the whole table.
func (t *bucketTable) rangeItems(f func(x int) bool) {
	for _, bucket := range t.buckets {
		for _, v := range bucket {
			if !f(v) {
				return
			}
		}
	}
}

// CoarseHashSet is the Fig. 13.2 baseline: a single lock serializes
// everything, including resizing.
type CoarseHashSet struct {
	mu    sync.Mutex
	table *bucketTable
}

var _ Set = (*CoarseHashSet)(nil)

// NewCoarseHashSet returns an empty set with the given initial capacity
// (a power of two).
func NewCoarseHashSet(capacity int) *CoarseHashSet {
	return &CoarseHashSet{table: newBucketTable(capacity)}
}

// Add inserts x, reporting whether it was absent.
func (s *CoarseHashSet) Add(x int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	ok := s.table.add(x)
	if ok && s.table.policy() {
		s.table.grow()
	}
	return ok
}

// Remove deletes x, reporting whether it was present.
func (s *CoarseHashSet) Remove(x int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.table.remove(x)
}

// Contains reports membership of x.
func (s *CoarseHashSet) Contains(x int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.table.contains(x)
}

// Range enumerates items under the set lock until f returns false.
func (s *CoarseHashSet) Range(f func(x int) bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.table.rangeItems(f)
}

// StripedHashSet (Fig. 13.6) keeps a fixed array of L locks; bucket i is
// protected by lock i mod L. The table grows, the lock array does not, so
// each lock covers more buckets as the set fills.
type StripedHashSet struct {
	locks []sync.Mutex
	table *bucketTable
}

var _ Set = (*StripedHashSet)(nil)

// NewStripedHashSet returns an empty set; the stripe count is fixed at the
// initial capacity, as in the book.
func NewStripedHashSet(capacity int) *StripedHashSet {
	return &StripedHashSet{
		locks: make([]sync.Mutex, capacity),
		table: newBucketTable(capacity),
	}
}

// lockFor locks the stripe covering x and returns it for unlocking. The
// stripe index uses the same masked hash bits as the bucket index, so a
// stripe always covers whole buckets, and the cover is stable as the table
// grows (the stripe count divides every table size).
func (s *StripedHashSet) lockFor(x int) *sync.Mutex {
	l := &s.locks[hashIndex(x, len(s.locks))]
	l.Lock()
	return l
}

// Range enumerates items with every stripe held until f returns false.
func (s *StripedHashSet) Range(f func(x int) bool) {
	for i := range s.locks {
		s.locks[i].Lock()
	}
	defer func() {
		for i := range s.locks {
			s.locks[i].Unlock()
		}
	}()
	s.table.rangeItems(f)
}

// Add inserts x, reporting whether it was absent.
func (s *StripedHashSet) Add(x int) bool {
	l := s.lockFor(x)
	ok := s.table.add(x)
	grow := ok && s.table.policy()
	l.Unlock()
	if grow {
		s.resize()
	}
	return ok
}

// Remove deletes x, reporting whether it was present.
func (s *StripedHashSet) Remove(x int) bool {
	l := s.lockFor(x)
	defer l.Unlock()
	return s.table.remove(x)
}

// Contains reports membership of x.
func (s *StripedHashSet) Contains(x int) bool {
	l := s.lockFor(x)
	defer l.Unlock()
	return s.table.contains(x)
}

// resize acquires every stripe in order (deadlock-free by total order),
// re-checks the policy, and grows.
func (s *StripedHashSet) resize() {
	for i := range s.locks {
		s.locks[i].Lock()
	}
	if s.table.policy() { // someone may have resized before us
		s.table.grow()
	}
	for i := range s.locks {
		s.locks[i].Unlock()
	}
}
