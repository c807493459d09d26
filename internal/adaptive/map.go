package adaptive

import "amp/internal/strmap"

// rangeMap is what a map member must offer: the Map operations plus the
// quiesced enumeration that migration (and the server's snapshot cut)
// walks.
type rangeMap interface {
	strmap.Map
	Range(f func(key string, val int64) bool)
}

var mapSpecs = [2]spec[rangeMap]{
	writeMember: {name: "coarse", make: func(c int) rangeMap { return strmap.NewCoarseMap(c) }},
	readMember:  {name: "epoch", make: func(c int) rangeMap { return strmap.NewEpochMap(c) }},
}

func migrateMap(from, to rangeMap) {
	from.Range(func(k string, v int64) bool {
		to.Set(k, v)
		return true
	})
}

// Map is the adaptive string map. It implements strmap.Map; writes (and
// non-bypass reads) must come from one owner goroutine at a time, which
// also calls Tick at its batch boundaries. TryGet is safe from any
// goroutine.
type Map struct{ core[rangeMap] }

var _ strmap.Map = (*Map)(nil)

// NewMap returns an adaptive map on its write member, coarse.
func NewMap(capacity int, cfg Config) *Map {
	m := new(Map)
	m.init(capacity, cfg, mapSpecs, migrateMap)
	return m
}

// Set maps key to val, reporting whether the key was absent. Owner only.
func (m *Map) Set(key string, val int64) bool { return m.forWrite().Set(key, val) }

// Get returns the value at key. Owner only (bypass readers use TryGet).
func (m *Map) Get(key string) (int64, bool) { return m.forRead().Get(key) }

// Del removes key, reporting whether it was present. Owner only.
func (m *Map) Del(key string) bool { return m.forWrite().Del(key) }

// TryGet serves a read from any goroutine while the map is on its read
// member; served=false means the caller must route the read through the
// owner.
func (m *Map) TryGet(key string) (val int64, ok, served bool) {
	impl, served := m.forBypass()
	if !served {
		return 0, false, false
	}
	val, ok = impl.Get(key)
	return val, ok, true
}

// Range enumerates the live member. Owner only, like the writes: callers
// quiesce the shard first, exactly as Tick's migration does.
func (m *Map) Range(f func(key string, val int64) bool) { m.cur.Load().impl.Range(f) }
