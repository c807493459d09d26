package strmap

import "sync"

// StripedMap keeps a fixed array of L locks (L = the initial capacity);
// the stripe covering a key is chosen by the same masked hash bits as its
// bucket, so a stripe always covers whole buckets and the cover stays
// stable as the table grows — Fig. 13.6 with chains.
type StripedMap struct {
	hash  func(string) uint64
	locks []sync.Mutex
	table *chainTable
}

var _ Map = (*StripedMap)(nil)

// NewStripedMap returns an empty map; the stripe count is fixed at the
// power-of-two initial capacity, as in the book.
func NewStripedMap(capacity int) *StripedMap {
	return &StripedMap{
		hash:  Hash,
		locks: make([]sync.Mutex, capacity),
		table: newChainTable(capacity),
	}
}

// lockFor locks the stripe covering hash h and returns it for unlocking.
func (m *StripedMap) lockFor(h uint64) *sync.Mutex {
	l := &m.locks[int(h&uint64(len(m.locks)-1))]
	l.Lock()
	return l
}

// Set maps key to val, reporting whether the key was absent.
func (m *StripedMap) Set(key string, val int64) bool {
	h := m.hash(key)
	l := m.lockFor(h)
	ok := m.table.set(h, key, val)
	grow := ok && m.table.policy()
	l.Unlock()
	if grow {
		m.resize()
	}
	return ok
}

// Get returns the value at key.
func (m *StripedMap) Get(key string) (int64, bool) {
	h := m.hash(key)
	l := m.lockFor(h)
	defer l.Unlock()
	return m.table.get(h, key)
}

// Del removes key, reporting whether it was present.
func (m *StripedMap) Del(key string) bool {
	h := m.hash(key)
	l := m.lockFor(h)
	defer l.Unlock()
	return m.table.del(h, key)
}

// Range enumerates entries with every stripe held (the resize quiesce)
// until f returns false.
func (m *StripedMap) Range(f func(key string, val int64) bool) {
	for i := range m.locks {
		m.locks[i].Lock()
	}
	defer func() {
		for i := range m.locks {
			m.locks[i].Unlock()
		}
	}()
	m.table.rangeEntries(f)
}

// resize acquires every stripe in order (deadlock-free by total order),
// re-checks the policy, and grows.
func (m *StripedMap) resize() {
	for i := range m.locks {
		m.locks[i].Lock()
	}
	if m.table.policy() { // someone may have resized before us
		m.table.grow()
	}
	for i := range m.locks {
		m.locks[i].Unlock()
	}
}
