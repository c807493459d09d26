package strmap

import "sync"

// CoarseMap is the baseline: a single lock serializes everything,
// including growth — the map rendering of Fig. 13.2.
type CoarseMap struct {
	hash  func(string) uint64
	mu    sync.Mutex
	table *chainTable
}

var _ Map = (*CoarseMap)(nil)

// NewCoarseMap returns an empty map with the given power-of-two initial
// capacity.
func NewCoarseMap(capacity int) *CoarseMap {
	return &CoarseMap{hash: Hash, table: newChainTable(capacity)}
}

// Set maps key to val, reporting whether the key was absent.
func (m *CoarseMap) Set(key string, val int64) bool {
	h := m.hash(key)
	m.mu.Lock()
	defer m.mu.Unlock()
	ok := m.table.set(h, key, val)
	if ok && m.table.policy() {
		m.table.grow()
	}
	return ok
}

// Get returns the value at key.
func (m *CoarseMap) Get(key string) (int64, bool) {
	h := m.hash(key)
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.table.get(h, key)
}

// Del removes key, reporting whether it was present.
func (m *CoarseMap) Del(key string) bool {
	h := m.hash(key)
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.table.del(h, key)
}

// Range enumerates entries under the map lock until f returns false.
func (m *CoarseMap) Range(f func(key string, val int64) bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.table.rangeEntries(f)
}
