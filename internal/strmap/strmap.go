// Package strmap implements string-keyed concurrent maps: the Chapter 13
// hash-table designs re-run with variable-length keys. Where package
// hashset stores int members, these maps store key→value entries whose
// bucket chains are linked nodes keyed on the *full* string — two keys
// that collide in the hash (or in a bucket) still resolve independently,
// which is what lets ampserved route strings by a 64-bit hash and leave
// collision resolution to the owning shard.
//
//   - CoarseMap: one lock over a chained bucket table (the Fig. 13.2
//     layout with open chaining)
//   - StripedMap: a fixed stripe of locks over a growing table (Fig. 13.6)
//   - RefinableMap: lock stripes that grow with the table (Fig. 13.10)
//   - CuckooChainMap: phased cuckoo hashing with probe-set chains
//     (Fig. 13.21–13.27); each nest holds a short chain of full-key
//     entries instead of one item
//
// Keys are hashed with FNV-1a 64 (exported as Hash so the server can use
// the same function for shard routing); every map keeps the hash function
// in a field so tests can inject colliding hashes.
package strmap

import (
	"fmt"
	"sync/atomic"
)

// Map is the concurrent string→int64 map abstraction served by the
// ampserved HSET/HGET/HDEL family.
type Map interface {
	// Set maps key to val, reporting whether the key was absent (an
	// insert, as opposed to an overwrite).
	Set(key string, val int64) bool
	// Get returns the value at key.
	Get(key string) (int64, bool)
	// Del removes key, reporting whether it was present.
	Del(key string) bool
}

// Every map in the package additionally implements
//
//	Range(f func(key string, val int64) bool) // enumerate entries; stop on false
//
// which quiesces the whole structure (all stripes / the writer lock), so
// it is a migration primitive, not a fast iterator.

// FNV-1a 64-bit parameters (the classic offset basis and prime).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Hash is FNV-1a 64 over the key's bytes. The server folds it into the
// int64 shard-routing key space; the maps use it for bucket selection,
// so routing and chaining agree on one hash.
func Hash(key string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= fnvPrime64
	}
	return h
}

// node is one chained entry: the full key (collision resolution), its
// cached hash (cheap rehash on growth), and the value. Chains are the
// book's list machinery in miniature — singly linked, searched linearly,
// unlinked by pointer surgery under the covering lock.
type node struct {
	hash uint64
	key  string
	val  int64
	next *node
}

// chainTable is the sequential core shared by the lock-based maps: a
// power-of-two slice of node chains. All methods take the precomputed
// hash so each operation hashes its key exactly once.
type chainTable struct {
	buckets []*node
	size    atomic.Int64 // updated under per-stripe locks, so it must be atomic
}

func newChainTable(capacity int) *chainTable {
	if capacity < 2 || capacity&(capacity-1) != 0 {
		panic(fmt.Sprintf("strmap: capacity must be a power of two >= 2, got %d", capacity))
	}
	return &chainTable{buckets: make([]*node, capacity)}
}

// bucketOf masks the hash down to a bucket index. Masking the same low
// bits for every power-of-two size keeps the striped-lock invariant:
// equal bucket index implies equal stripe index for any stripe count
// that divides the table size.
func (t *chainTable) bucketOf(h uint64) int { return int(h & uint64(len(t.buckets)-1)) }

func (t *chainTable) get(h uint64, key string) (int64, bool) {
	for n := t.buckets[t.bucketOf(h)]; n != nil; n = n.next {
		if n.hash == h && n.key == key {
			return n.val, true
		}
	}
	return 0, false
}

// set inserts or overwrites, reporting whether the key was absent.
func (t *chainTable) set(h uint64, key string, val int64) bool {
	b := t.bucketOf(h)
	for n := t.buckets[b]; n != nil; n = n.next {
		if n.hash == h && n.key == key {
			n.val = val
			return false
		}
	}
	t.buckets[b] = &node{hash: h, key: key, val: val, next: t.buckets[b]}
	t.size.Add(1)
	return true
}

func (t *chainTable) del(h uint64, key string) bool {
	b := t.bucketOf(h)
	for p := &t.buckets[b]; *p != nil; p = &(*p).next {
		if n := *p; n.hash == h && n.key == key {
			*p = n.next
			t.size.Add(-1)
			return true
		}
	}
	return false
}

// grow relinks every node into a table twice the size (no reallocation of
// entries: the cached hashes make rehashing pointer surgery).
func (t *chainTable) grow() {
	next := make([]*node, 2*len(t.buckets))
	mask := uint64(len(next) - 1)
	for _, n := range t.buckets {
		for n != nil {
			after := n.next
			b := int(n.hash & mask)
			n.next = next[b]
			next[b] = n
			n = after
		}
	}
	t.buckets = next
}

// policy is the book's resize trigger: average chain length exceeds 4.
func (t *chainTable) policy() bool {
	return t.size.Load()/int64(len(t.buckets)) > 4
}

// rangeEntries calls f for every entry until f returns false. Callers
// must hold whatever locks cover the whole table (the per-map Range
// methods do).
func (t *chainTable) rangeEntries(f func(key string, val int64) bool) {
	for _, n := range t.buckets {
		for ; n != nil; n = n.next {
			if !f(n.key, n.val) {
				return
			}
		}
	}
}
