package strmap

import (
	"fmt"
	"math/bits"
	"sync"
)

// CuckooChainMap is the phased concurrent cuckoo map (Fig. 13.21–13.27):
// two tables, two derived hashes, and — the "chain" in the name — each
// nest holds a short probe chain of full-key entries rather than one
// item, so equal-hash keys coexist in a nest and resolve by string
// comparison. Additions past the preferred threshold trigger a relocation
// phase; a fixed stripe of lock pairs guards the two tables, with resizes
// serialized behind every stripe.
//
// Both nests are derived from one base FNV-1a hash (the second by an
// odd-multiplier remix), so two keys with *identical* base hashes share
// both nests and still behave as independent entries — the collision
// guarantee the server-side chaining relies on.
type CuckooChainMap struct {
	hash     func(string) uint64
	locks    [2][]sync.Mutex // fixed stripes, one array per table
	mu       sync.Mutex      // serializes resizes
	capacity int             // guarded by any stripe (readers) / all stripes (resizer)
	table    [2][][]*node    // probe chains
}

var _ Map = (*CuckooChainMap)(nil)

// Probe-set tuning from the book, and the second-nest remix multiplier
// (odd, so the remix is a bijection on uint64).
const (
	cuckooProbeSize      = 4 // entries per probe chain before resize pressure
	cuckooProbeThreshold = 2 // preferred fill before spilling
	cuckooRelocateLimit  = 512

	remix64 = 0xC2B2AE3D27D4EB4F
)

// altHash derives the second nest from the base hash; equal base hashes
// yield equal alternates, keeping colliding keys fully co-resident.
func altHash(h uint64) uint64 { return bits.RotateLeft64(h*remix64, 32) }

// NewCuckooChainMap returns an empty map; the stripe count is fixed at
// the power-of-two initial capacity per table.
func NewCuckooChainMap(capacity int) *CuckooChainMap {
	if capacity < 2 || capacity&(capacity-1) != 0 {
		panic(fmt.Sprintf("strmap: cuckoo capacity must be a power of two >= 2, got %d", capacity))
	}
	m := &CuckooChainMap{hash: Hash, capacity: capacity}
	for i := 0; i < 2; i++ {
		m.locks[i] = make([]sync.Mutex, capacity)
		m.table[i] = make([][]*node, capacity)
	}
	return m
}

// nestHash is the hash used by table i for base hash h.
func nestHash(i int, h uint64) uint64 {
	if i == 0 {
		return h
	}
	return altHash(h)
}

func (m *CuckooChainMap) stripe(i int, h uint64) *sync.Mutex {
	return &m.locks[i][nestHash(i, h)&uint64(len(m.locks[i])-1)]
}

// acquire locks the two stripes for base hash h in table order
// (deadlock-free by the fixed order).
func (m *CuckooChainMap) acquire(h uint64) {
	m.stripe(0, h).Lock()
	m.stripe(1, h).Lock()
}

// Range enumerates entries with the resize lock and every stripe held
// until f returns false.
func (m *CuckooChainMap) Range(f func(key string, val int64) bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := 0; i < 2; i++ {
		for k := range m.locks[i] {
			m.locks[i][k].Lock()
		}
	}
	defer func() {
		for i := 0; i < 2; i++ {
			for k := range m.locks[i] {
				m.locks[i][k].Unlock()
			}
		}
	}()
	for i := 0; i < 2; i++ {
		for _, chain := range m.table[i] {
			for _, n := range chain {
				if !f(n.key, n.val) {
					return
				}
			}
		}
	}
}

func (m *CuckooChainMap) release(h uint64) {
	m.stripe(0, h).Unlock()
	m.stripe(1, h).Unlock()
}

func (m *CuckooChainMap) slotIndex(i int, h uint64) int {
	return int(nestHash(i, h) & uint64(m.capacity-1))
}

// findKey scans a probe chain for the full key.
func findKey(chain []*node, h uint64, key string) int {
	for i, n := range chain {
		if n.hash == h && n.key == key {
			return i
		}
	}
	return -1
}

// Get returns the value at key: at most two probe chains.
func (m *CuckooChainMap) Get(key string) (int64, bool) {
	h := m.hash(key)
	m.acquire(h)
	defer m.release(h)
	for i := 0; i < 2; i++ {
		chain := m.table[i][m.slotIndex(i, h)]
		if j := findKey(chain, h, key); j >= 0 {
			return chain[j].val, true
		}
	}
	return 0, false
}

// Del removes key, reporting whether it was present.
func (m *CuckooChainMap) Del(key string) bool {
	h := m.hash(key)
	m.acquire(h)
	defer m.release(h)
	for i := 0; i < 2; i++ {
		idx := m.slotIndex(i, h)
		if j := findKey(m.table[i][idx], h, key); j >= 0 {
			chain := m.table[i][idx]
			m.table[i][idx] = append(chain[:j], chain[j+1:]...)
			return true
		}
	}
	return false
}

// Set maps key to val, reporting whether the key was absent. Following
// Fig. 13.23, an insert that overflows the preferred threshold still
// lands in a probe chain, then a relocation phase rebalances; if
// relocation fails, resize and retry.
func (m *CuckooChainMap) Set(key string, val int64) bool {
	h := m.hash(key)
	m.acquire(h)
	i0, i1 := m.slotIndex(0, h), m.slotIndex(1, h)
	chain0, chain1 := m.table[0][i0], m.table[1][i1]
	if j := findKey(chain0, h, key); j >= 0 {
		chain0[j].val = val
		m.release(h)
		return false
	}
	if j := findKey(chain1, h, key); j >= 0 {
		chain1[j].val = val
		m.release(h)
		return false
	}
	entry := &node{hash: h, key: key, val: val}
	mustRelocate, relTable, relIndex := false, 0, 0
	mustResize := false
	switch {
	case len(chain0) < cuckooProbeThreshold:
		m.table[0][i0] = append(chain0, entry)
	case len(chain1) < cuckooProbeThreshold:
		m.table[1][i1] = append(chain1, entry)
	case len(chain0) < cuckooProbeSize:
		m.table[0][i0] = append(chain0, entry)
		mustRelocate, relTable, relIndex = true, 0, i0
	case len(chain1) < cuckooProbeSize:
		m.table[1][i1] = append(chain1, entry)
		mustRelocate, relTable, relIndex = true, 1, i1
	default:
		mustResize = true
	}
	m.release(h)
	if mustResize {
		m.resize()
		return m.Set(key, val)
	}
	if mustRelocate && !m.relocate(relTable, relIndex) {
		m.resize()
	}
	return true
}

// stripeForSlot returns the stripe covering slot hi of table i. Stripe
// count divides every table capacity, so slot index mod stripe count is
// the covering stripe.
func (m *CuckooChainMap) stripeForSlot(i, hi int) *sync.Mutex {
	return &m.locks[i][hi&(len(m.locks[i])-1)]
}

// peekVictim reads the oldest entry of slot (i, hi) under its stripe.
func (m *CuckooChainMap) peekVictim(i, hi int) (*node, bool) {
	l := m.stripeForSlot(i, hi)
	l.Lock()
	defer l.Unlock()
	chain := m.table[i][hi]
	if len(chain) == 0 {
		return nil, false
	}
	return chain[0], true
}

// relocate drains an over-threshold probe chain by moving its oldest
// entry to the entry's other nest (Fig. 13.27). It reports false when it
// gives up.
func (m *CuckooChainMap) relocate(i, hi int) bool {
	j := 1 - i
	for round := 0; round < cuckooRelocateLimit; round++ {
		y, ok := m.peekVictim(i, hi)
		if !ok {
			return true // chain drained by someone else
		}
		m.acquire(y.hash)
		if hi != m.slotIndex(i, y.hash) {
			// The table was resized between peek and acquire: the slot we
			// were draining no longer exists in this geometry.
			m.release(y.hash)
			return true
		}
		hj := m.slotIndex(j, y.hash)
		iChain := m.table[i][hi]
		jChain := m.table[j][hj]
		yi := findKey(iChain, y.hash, y.key)
		switch {
		case yi >= 0 && len(jChain) < cuckooProbeThreshold:
			m.table[i][hi] = append(iChain[:yi], iChain[yi+1:]...)
			m.table[j][hj] = append(jChain, y)
			done := len(m.table[i][hi]) <= cuckooProbeThreshold
			m.release(y.hash)
			if done {
				return true
			}
		case yi >= 0 && len(jChain) < cuckooProbeSize:
			m.table[i][hi] = append(iChain[:yi], iChain[yi+1:]...)
			m.table[j][hj] = append(jChain, y)
			// The other nest is itself over threshold now: chase it.
			m.release(y.hash)
			i, j = j, i
			hi = hj
		case yi >= 0:
			m.release(y.hash)
			return false // both nests saturated: resize
		default:
			// y moved under us; if our chain is now within threshold, done.
			done := len(iChain) <= cuckooProbeThreshold
			m.release(y.hash)
			if done {
				return true
			}
		}
	}
	return false
}

// resize doubles both tables under the global resize lock, then re-adds
// every entry with all stripes held.
func (m *CuckooChainMap) resize() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := 0; i < 2; i++ {
		for k := range m.locks[i] {
			m.locks[i][k].Lock()
		}
	}
	defer func() {
		for i := 0; i < 2; i++ {
			for k := range m.locks[i] {
				m.locks[i][k].Unlock()
			}
		}
	}()

	var entries []*node
	for i := 0; i < 2; i++ {
		for _, chain := range m.table[i] {
			entries = append(entries, chain...)
		}
	}
	m.capacity *= 2
	for i := 0; i < 2; i++ {
		m.table[i] = make([][]*node, m.capacity)
	}
	// Sequential re-insertion: all stripes are held, so place each entry
	// in the emptier of its two nests. Probe chains are unbounded slices,
	// so a nest past its preferred size just invites a later relocation.
	for _, n := range entries {
		i0, i1 := m.slotIndex(0, n.hash), m.slotIndex(1, n.hash)
		if len(m.table[0][i0]) <= len(m.table[1][i1]) {
			m.table[0][i0] = append(m.table[0][i0], n)
		} else {
			m.table[1][i1] = append(m.table[1][i1], n)
		}
	}
}
