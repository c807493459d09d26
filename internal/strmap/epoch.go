package strmap

import (
	"sync"
	"sync/atomic"

	"amp/internal/epoch"
)

// emNodePool is the single recycling pool of an EpochMap's domain: chain
// nodes. Tables are not pooled — growth is rare and the retired slice is
// cheap to leave to the GC; it is the per-operation node churn that must
// stay allocation-free.
const emNodePool = 0

// emNode is one published entry. hash, key and val are immutable from
// publication (the atomic store that links the node into a chain) until
// the node's grace period expires after retirement; only next changes,
// and only through its atomic.Pointer. Overwrites therefore publish a
// *replacement* node instead of mutating val in place — the RCU
// copy-on-update discipline that makes lock-free readers torn-read-proof.
type emNode struct {
	hash uint64
	key  string
	val  int64
	next atomic.Pointer[emNode]
}

// emTable is one published bucket array. Readers load the table pointer
// once and traverse it even if a concurrent grow publishes a successor:
// the superseded table's chains stay intact (grow copies nodes, it never
// re-links them), so such a read linearizes at its table load.
type emTable struct {
	mask    uint64
	buckets []atomic.Pointer[emNode]
}

// EpochMap is the read-optimized member of the family: a chained hash
// table whose writers serialize on a mutex while readers run lock-free
// under an epoch.Domain pin — McKenney's RCU reader/writer split rendered
// with the book's Chapter 9 publication discipline. Get never blocks,
// never writes shared memory beyond its pin slot, and completes in a
// bounded number of steps once the chain is loaded, which is what lets
// ampserved execute HGET directly on connection goroutines (the wait-free
// read bypass) while HSET/HDEL keep flowing through the shard mailboxes.
//
// Unlinked and displaced nodes are retired to the domain and recycled
// after two epoch advancements, so steady-state churn allocates nothing
// and a pinned reader can chase a just-replaced chain without ever
// touching reused memory.
type EpochMap struct {
	dom  *epoch.Domain
	hash func(string) uint64

	mu    sync.Mutex // writers and growth
	table atomic.Pointer[emTable]
	size  int // entries, writer-owned (read under mu)
}

var _ Map = (*EpochMap)(nil)

// NewEpochMap returns an empty map with the given initial bucket count
// (power of two ≥ 2) and its own reclamation domain.
func NewEpochMap(capacity int) *EpochMap {
	if capacity < 2 || capacity&(capacity-1) != 0 {
		panic("strmap: capacity must be a power of two >= 2")
	}
	m := &EpochMap{dom: epoch.NewDomain(1), hash: Hash}
	m.table.Store(&emTable{
		mask:    uint64(capacity - 1),
		buckets: make([]atomic.Pointer[emNode], capacity),
	})
	return m
}

// Domain exposes the reclamation domain for diagnostics and the server's
// epoch-pin leak tests.
func (m *EpochMap) Domain() *epoch.Domain { return m.dom }

// Range enumerates entries under the writer lock until f returns false.
// With writers excluded the published chains are frozen, and retired
// nodes are unreachable from the live table, so the walk needs no pin.
func (m *EpochMap) Range(f func(key string, val int64) bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	t := m.table.Load()
	for i := range t.buckets {
		for n := t.buckets[i].Load(); n != nil; n = n.next.Load() {
			if !f(n.key, n.val) {
				return
			}
		}
	}
}

// node returns a recycled (or fresh) node. The caller owns it until the
// atomic store that publishes it.
func (m *EpochMap) node(s *epoch.Slot, h uint64, key string, val int64) *emNode {
	if r := s.Alloc(emNodePool); r != nil {
		n := r.(*emNode)
		n.hash, n.key, n.val = h, key, val
		return n
	}
	return &emNode{hash: h, key: key, val: val}
}

// Set maps key to val, reporting whether the key was absent.
func (m *EpochMap) Set(key string, val int64) bool {
	h := m.hash(key)
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.dom.Pin()
	defer m.dom.Unpin(s)

	t := m.table.Load()
	link := &t.buckets[h&t.mask]
	for n := link.Load(); n != nil; n = link.Load() {
		if n.hash == h && n.key == key {
			// Overwrite: publish a replacement, retire the old node. A
			// reader that already holds n returns the old value and
			// linearizes before this store.
			repl := m.node(s, h, key, val)
			repl.next.Store(n.next.Load())
			link.Store(repl)
			s.Retire(emNodePool, n)
			return false
		}
		link = &n.next
	}
	n := m.node(s, h, key, val)
	n.next.Store(t.buckets[h&t.mask].Load())
	t.buckets[h&t.mask].Store(n)
	m.size++
	if m.size > 4*len(t.buckets) {
		m.grow(s, t)
	}
	return true
}

// Get returns the value at key. It takes no lock: pin, load the table,
// chase the chain through atomic pointers, unpin — safe from any
// goroutine, concurrent with writers and growth.
func (m *EpochMap) Get(key string) (int64, bool) {
	h := m.hash(key)
	s := m.dom.Pin()
	t := m.table.Load()
	for n := t.buckets[h&t.mask].Load(); n != nil; n = n.next.Load() {
		if n.hash == h && n.key == key {
			v := n.val
			m.dom.Unpin(s)
			return v, true
		}
	}
	m.dom.Unpin(s)
	return 0, false
}

// Del removes key, reporting whether it was present.
func (m *EpochMap) Del(key string) bool {
	h := m.hash(key)
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.dom.Pin()
	defer m.dom.Unpin(s)

	t := m.table.Load()
	link := &t.buckets[h&t.mask]
	for n := link.Load(); n != nil; n = link.Load() {
		if n.hash == h && n.key == key {
			link.Store(n.next.Load())
			s.Retire(emNodePool, n)
			m.size--
			return true
		}
		link = &n.next
	}
	return false
}

// grow publishes a doubled table. Entries are copied into fresh nodes
// (never re-linked: readers may be mid-chain in the old table), the new
// table is published with one atomic store, and every old node is
// retired. Called with mu held and s pinned.
func (m *EpochMap) grow(s *epoch.Slot, old *emTable) {
	nt := &emTable{
		mask:    uint64(2*len(old.buckets) - 1),
		buckets: make([]atomic.Pointer[emNode], 2*len(old.buckets)),
	}
	for i := range old.buckets {
		for n := old.buckets[i].Load(); n != nil; n = n.next.Load() {
			c := m.node(s, n.hash, n.key, n.val)
			b := &nt.buckets[n.hash&nt.mask]
			c.next.Store(b.Load())
			b.Store(c)
		}
	}
	m.table.Store(nt)
	for i := range old.buckets {
		for n := old.buckets[i].Load(); n != nil; n = n.next.Load() {
			s.Retire(emNodePool, n)
		}
	}
}
