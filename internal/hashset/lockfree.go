package hashset

import (
	"math/bits"
	"sync/atomic"
)

// Split-ordered ("recursive split-ordering") lock-free hash set,
// Fig. 13.15–13.18. One lock-free linked list holds every item in
// *split order* — the bit-reversal of its hash — so that when the bucket
// count doubles, a bucket splits into two adjacent runs of the list and no
// item ever moves. The bucket array is a lazily initialized table of
// shortcut pointers to sentinel nodes inside the list.
//
// Keys: an item's list key is reverse(hash)|1 (LSB set → "ordinary");
// bucket b's sentinel key is reverse(b) (LSB clear). Ties between distinct
// items that share a (reversed) hash are broken by the item value itself,
// the fix the book describes in its errata for equal hash codes.

// soNode is a node of the split-ordered list; next is an immutable
// (successor, marked) pair as in package list.
type soNode struct {
	key  uint64 // split-order key
	item int    // meaningful only for ordinary nodes
	next atomic.Pointer[soRef]
}

type soRef struct {
	node   *soNode
	marked bool
}

func newSONode(key uint64, item int, succ *soNode) *soNode {
	n := &soNode{key: key, item: item}
	n.next.Store(&soRef{node: succ})
	return n
}

// soLess orders nodes by (key, item); sentinels (even keys) never tie with
// ordinary nodes (odd keys).
func soLess(aKey uint64, aItem int, bKey uint64, bItem int) bool {
	if aKey != bKey {
		return aKey < bKey
	}
	return aItem < bItem
}

// ordinaryKey computes an item's split-order key: bit-reversed hash with
// the low bit forced to 1.
func ordinaryKey(x int) uint64 {
	return bits.Reverse64(hash64(x)) | 1
}

// sentinelKey computes bucket b's split-order key: bit-reversed index,
// low bit 0.
func sentinelKey(bucket uint64) uint64 {
	return bits.Reverse64(bucket)
}

// parentBucket clears the most significant set bit: the bucket whose list
// segment bucket b split from (Fig. 13.17).
func parentBucket(bucket uint64) uint64 {
	if bucket == 0 {
		return 0
	}
	return bucket &^ (1 << (63 - uint(bits.LeadingZeros64(bucket))))
}

// LockFreeHashSet is the resizable lock-free hash set. The bucket
// directory is a two-level table so it can cover 2^20 buckets without
// allocating them up front.
type LockFreeHashSet struct {
	head       *soNode // sentinel for bucket 0, key 0
	segments   []atomic.Pointer[soSegment]
	bucketSize atomic.Uint64 // current bucket count, a power of two
	setSize    atomic.Int64
}

const (
	soSegmentBits = 10
	soSegmentSize = 1 << soSegmentBits
	soMaxBuckets  = 1 << 20
	// soThreshold is the average bucket load that triggers doubling.
	soThreshold = 4
)

type soSegment [soSegmentSize]atomic.Pointer[soNode]

var _ Set = (*LockFreeHashSet)(nil)

// NewLockFreeHashSet returns an empty set with two initial buckets.
func NewLockFreeHashSet() *LockFreeHashSet {
	s := &LockFreeHashSet{
		head:     newSONode(sentinelKey(0), 0, nil),
		segments: make([]atomic.Pointer[soSegment], soMaxBuckets/soSegmentSize),
	}
	seg := &soSegment{}
	seg[0].Store(s.head)
	s.segments[0].Store(seg)
	s.bucketSize.Store(2)
	return s
}

// bucketSentinel returns the stored sentinel for the bucket, or nil.
func (s *LockFreeHashSet) bucketSentinel(b uint64) *soNode {
	seg := s.segments[b>>soSegmentBits].Load()
	if seg == nil {
		return nil
	}
	return seg[b&(soSegmentSize-1)].Load()
}

// storeBucketSentinel publishes the sentinel for bucket b.
func (s *LockFreeHashSet) storeBucketSentinel(b uint64, n *soNode) {
	idx := b >> soSegmentBits
	seg := s.segments[idx].Load()
	if seg == nil {
		fresh := &soSegment{}
		if !s.segments[idx].CompareAndSwap(nil, fresh) {
			seg = s.segments[idx].Load()
		} else {
			seg = fresh
		}
	}
	seg[b&(soSegmentSize-1)].Store(n)
}

// getBucket returns bucket b's sentinel, initializing it (and recursively
// its parent) on first touch.
func (s *LockFreeHashSet) getBucket(b uint64) *soNode {
	sentinel := s.bucketSentinel(b)
	if sentinel != nil {
		return sentinel
	}
	parent := s.getBucket(parentBucket(b))
	sentinel = s.insertSentinel(parent, sentinelKey(b))
	s.storeBucketSentinel(b, sentinel)
	return sentinel
}

// insertSentinel adds a sentinel node with the given key starting the
// search at `start`, returning the (possibly pre-existing) node.
func (s *LockFreeHashSet) insertSentinel(start *soNode, key uint64) *soNode {
	for {
		pred, curr := s.find(start, key, 0)
		if curr != nil && curr.key == key {
			return curr // someone else already spliced it in
		}
		node := newSONode(key, 0, curr)
		expected := pred.next.Load()
		if expected.node != curr || expected.marked {
			continue
		}
		if pred.next.CompareAndSwap(expected, &soRef{node: node}) {
			return node
		}
	}
}

// find returns the window (pred, curr) within the list starting at start
// such that curr is the first node with (key,item) >= (key,item) sought;
// curr may be nil (end of list). Marked nodes along the way are snipped.
func (s *LockFreeHashSet) find(start *soNode, key uint64, item int) (pred, curr *soNode) {
retry:
	for {
		pred = start
		curr = pred.next.Load().node
		for curr != nil {
			succRef := curr.next.Load()
			for succRef.marked {
				expected := pred.next.Load()
				if expected.node != curr || expected.marked {
					continue retry
				}
				if !pred.next.CompareAndSwap(expected, &soRef{node: succRef.node}) {
					continue retry
				}
				curr = succRef.node
				if curr == nil {
					return pred, nil
				}
				succRef = curr.next.Load()
			}
			if !soLess(curr.key, curr.item, key, item) {
				return pred, curr
			}
			pred = curr
			curr = succRef.node
		}
		return pred, nil
	}
}

// bucketOf maps an item to its current bucket.
func (s *LockFreeHashSet) bucketOf(x int) uint64 {
	return hash64(x) & (s.bucketSize.Load() - 1)
}

// Add inserts x, reporting whether it was absent.
func (s *LockFreeHashSet) Add(x int) bool {
	key := ordinaryKey(x)
	sentinel := s.getBucket(s.bucketOf(x))
	for {
		pred, curr := s.find(sentinel, key, x)
		if curr != nil && curr.key == key && curr.item == x {
			return false
		}
		node := newSONode(key, x, curr)
		expected := pred.next.Load()
		if expected.node != curr || expected.marked {
			continue
		}
		if pred.next.CompareAndSwap(expected, &soRef{node: node}) {
			break
		}
	}
	size := s.setSize.Add(1)
	if bs := s.bucketSize.Load(); bs < soMaxBuckets && size/int64(bs) > soThreshold {
		s.bucketSize.CompareAndSwap(bs, 2*bs)
	}
	return true
}

// Remove deletes x, reporting whether it was present.
func (s *LockFreeHashSet) Remove(x int) bool {
	key := ordinaryKey(x)
	sentinel := s.getBucket(s.bucketOf(x))
	for {
		_, curr := s.find(sentinel, key, x)
		if curr == nil || curr.key != key || curr.item != x {
			return false
		}
		succRef := curr.next.Load()
		if succRef.marked {
			continue
		}
		if !curr.next.CompareAndSwap(succRef, &soRef{node: succRef.node, marked: true}) {
			continue
		}
		s.setSize.Add(-1)
		s.find(sentinel, key, x) // physically unlink, best effort
		return true
	}
}

// Contains reports membership of x without writing to the list.
func (s *LockFreeHashSet) Contains(x int) bool {
	key := ordinaryKey(x)
	sentinel := s.getBucket(s.bucketOf(x))
	curr := sentinel
	for curr != nil && soLess(curr.key, curr.item, key, x) {
		curr = curr.next.Load().node
	}
	return curr != nil && curr.key == key && curr.item == x && !curr.next.Load().marked
}

// Range enumerates items until f returns false by walking the whole
// split-ordered list from the head sentinel, skipping sentinels (even
// keys) and logically deleted nodes. Concurrent with writers it is a
// weakly consistent snapshot; with writers quiesced (how the server's
// snapshot cut and reshard call it) it is exact.
func (s *LockFreeHashSet) Range(f func(x int) bool) {
	for n := s.head; n != nil; {
		ref := n.next.Load()
		if n.key&1 == 1 && !ref.marked {
			if !f(n.item) {
				return
			}
		}
		n = ref.node
	}
}

// Size reports the number of items (approximate under concurrency).
func (s *LockFreeHashSet) Size() int { return int(s.setSize.Load()) }

// Buckets reports the current bucket count, for tests and diagnostics.
func (s *LockFreeHashSet) Buckets() int { return int(s.bucketSize.Load()) }
