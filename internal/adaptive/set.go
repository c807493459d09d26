package adaptive

import (
	"amp/internal/hashset"
	"amp/internal/list"
)

// rangeSet is what a set member must offer; see rangeMap.
type rangeSet interface {
	list.Set
	Range(f func(x int) bool)
}

var setSpecs = [2]spec[rangeSet]{
	writeMember: {name: "coarse", make: func(c int) rangeSet { return hashset.NewCoarseHashSet(c) }},
	readMember:  {name: "lockfree", make: func(int) rangeSet { return hashset.NewLockFreeHashSet() }},
}

func migrateSet(from, to rangeSet) {
	from.Range(func(x int) bool {
		to.Add(x)
		return true
	})
}

// Set is the adaptive integer set. It implements list.Set; writes (and
// non-bypass reads) must come from one owner goroutine at a time, which
// also calls Tick at its batch boundaries. TryContains is safe from any
// goroutine.
type Set struct{ core[rangeSet] }

var _ list.Set = (*Set)(nil)

// NewSet returns an adaptive set on its write member, coarse.
func NewSet(capacity int, cfg Config) *Set {
	s := new(Set)
	s.init(capacity, cfg, setSpecs, migrateSet)
	return s
}

// Add inserts x, reporting whether it was absent. Owner only.
func (s *Set) Add(x int) bool { return s.forWrite().Add(x) }

// Remove deletes x, reporting whether it was present. Owner only.
func (s *Set) Remove(x int) bool { return s.forWrite().Remove(x) }

// Contains reports membership. Owner only (bypass readers use
// TryContains).
func (s *Set) Contains(x int) bool { return s.forRead().Contains(x) }

// TryContains serves a membership read from any goroutine while the set
// is on its read member; served=false means the caller must route the
// read through the owner.
func (s *Set) TryContains(x int) (member, served bool) {
	impl, served := s.forBypass()
	if !served {
		return false, false
	}
	return impl.Contains(x), true
}

// Range enumerates the live member. Owner only, like the writes: callers
// quiesce the shard first, exactly as Tick's migration does.
func (s *Set) Range(f func(x int) bool) { s.cur.Load().impl.Range(f) }
