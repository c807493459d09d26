// Package adaptive implements self-tuning "adjusted" backends:
// meta-containers that sit behind the unchanged Map / Set interfaces
// (internal/strmap, internal/hashset) and switch the live
// implementation between two members to fit the observed read/write
// mix — Kane's Adjusted Objects idea, narrowed to the one signal that
// is not structurally zero here.
//
// The containers are built for ampserved's shard discipline: all writes
// to one container are serialized by its owning shard (the combiner
// lock), while reads may additionally arrive from any goroutine through
// the wait-free bypass (TryGet / TryContains). One owner at a time means
// writers never contend inside a member, so there is no lock-wait or
// CAS-failure signal to climb a Ch. 13 ladder on (EXPERIMENTS.md E20
// addendum: 0 contended operations in 272k sampled windows), and each
// family keeps exactly two members:
//
//   - the write member, coarse: one uncontended lock, the cheapest
//     structure a single writer can drive. Containers boot on it.
//   - the read member (map: the RCU-style epoch table; set: the
//     lock-free split-ordered set), whose reads are safe from any
//     goroutine, so the server can turn the wait-free read bypass on.
//
// The owner calls Tick at batch boundaries; every cfg.Every ticks the
// controller closes a sampling window and applies one hysteresis: a
// window read fraction ≥ ReadHi moves the container to its read member,
// a fraction < ReadLo moves it back, and anything between stays put.
//
// A morph runs entirely on the owner goroutine at a batch boundary: the
// old implementation is quiesced by construction (zero concurrent
// writers), Range migrates its entries into a fresh instance of the
// target, and one atomic pointer store flips future operations over.
// Concurrent bypass readers linearize at their pointer load: a reader
// that loaded the old implementation finishes against it — the old
// structure is never mutated again and stays reachable until the GC
// collects it — and every operation after the flip sees the migrated
// state. No stop-the-world, no interface change.
package adaptive

import "sync/atomic"

// The read-fraction hysteresis band: a closed window at or above ReadHi
// moves a container to its read member, one below ReadLo moves it back.
const (
	ReadHi = 0.90
	ReadLo = 0.50
)

// Config tunes one controller. The zero value selects the defaults.
type Config struct {
	// Every is the number of owner ticks (batch drains) between policy
	// evaluations. Default 32.
	Every int
	// MinOps is the minimum operations a sampling window must hold
	// before the policy may act; smaller windows carry too much noise.
	// Default 256.
	MinOps int64
}

func (c Config) withDefaults() Config {
	if c.Every <= 0 {
		c.Every = 32
	}
	if c.MinOps <= 0 {
		c.MinOps = 256
	}
	return c
}

// Transition is one observed morph edge, for STATS.
type Transition struct {
	From, To string
	N        int64
}

// The two members of a family, as indexes into core.specs and core.flips.
const (
	writeMember = iota
	readMember
)

// spec is one selectable member: a name and a constructor.
type spec[I any] struct {
	name string
	make func(capacity int) I
}

// member is one live implementation. Immutable once published.
type member[I any] struct {
	idx  int // writeMember or readMember
	impl I
}

// core is the family-independent half of an adaptive container: the
// current-member pointer, the window counters, the controller and the
// migration. Map and Set embed it and add only their typed operations.
// Everything except cur, the op counters and flips is owned by the
// container's single writer (ampserved: the shard's combiner).
type core[I any] struct {
	cfg      Config
	capacity int
	specs    [2]spec[I]
	migrate  func(from, to I) // copy every entry of a quiesced from into to
	cur      atomic.Pointer[member[I]]

	// Window op counters. Atomics because bypass reads run on arbitrary
	// goroutines; the owner-only writes don't need the atomicity but
	// share the representation.
	reads  atomic.Int64
	writes atomic.Int64

	lastReads  int64 // window baselines
	lastWrites int64
	drains     int // owner ticks since the last evaluation

	flips [2]atomic.Int64 // completed morphs, by target member
}

func (c *core[I]) init(capacity int, cfg Config, specs [2]spec[I], migrate func(from, to I)) {
	c.cfg = cfg.withDefaults()
	c.capacity = normCap(capacity)
	c.specs = specs
	c.migrate = migrate
	c.cur.Store(c.build(writeMember))
}

func (c *core[I]) build(idx int) *member[I] {
	return &member[I]{idx: idx, impl: c.specs[idx].make(c.capacity)}
}

// forWrite and forRead count one owner operation into the open window
// and return the live implementation to apply it to.
func (c *core[I]) forWrite() I {
	c.writes.Add(1)
	return c.cur.Load().impl
}

func (c *core[I]) forRead() I {
	c.reads.Add(1)
	return c.cur.Load().impl
}

// forBypass is forRead for any goroutine: served=false means the
// container is on its write member and the caller must route the read
// through the owner. The read linearizes at the member load: a morph
// that flips cur concurrently leaves the loaded (old) member intact and
// unwritten.
func (c *core[I]) forBypass() (impl I, served bool) {
	cur := c.cur.Load()
	if cur.idx != readMember {
		return impl, false
	}
	c.reads.Add(1)
	return cur.impl, true
}

// decide is the whole policy: whether a closed window of reads and
// writes moves a container off the member it is on. Pure.
func decide(cfg Config, onRead bool, reads, writes int64) bool {
	total := reads + writes
	if total < cfg.MinOps {
		return false
	}
	frac := float64(reads) / float64(total)
	if onRead {
		return frac < ReadLo
	}
	return frac >= ReadHi
}

// Tick is the owner's batch-boundary hook: every cfg.Every calls it
// closes the sampling window, consults the policy, and — when the policy
// says morph — migrates and flips right here on the owner goroutine.
// flipped reports a completed morph with its edge.
func (c *core[I]) Tick() (from, to string, flipped bool) {
	if c.drains++; c.drains < c.cfg.Every {
		return "", "", false
	}
	c.drains = 0
	reads, writes := c.reads.Load(), c.writes.Load()
	dr, dw := reads-c.lastReads, writes-c.lastWrites
	if dr+dw >= c.cfg.MinOps {
		c.lastReads, c.lastWrites = reads, writes
	}
	cur := c.cur.Load()
	if !decide(c.cfg, cur.idx == readMember, dr, dw) {
		return "", "", false
	}
	next := c.build(1 - cur.idx)
	c.migrate(cur.impl, next.impl)
	c.cur.Store(next)
	c.flips[next.idx].Add(1)
	return c.specs[cur.idx].name, c.specs[next.idx].name, true
}

// BypassOK reports whether the current member's reads are safe from any
// goroutine, which is exactly when it is the read member. A true result
// can go stale across a morph; TryGet / TryContains revalidate.
func (c *core[I]) BypassOK() bool { return c.cur.Load().idx == readMember }

// Current reports the live member's name. Safe from any goroutine.
func (c *core[I]) Current() string { return c.specs[c.cur.Load().idx].name }

// Flips reports completed morphs. Safe from any goroutine.
func (c *core[I]) Flips() int64 { return c.flips[writeMember].Load() + c.flips[readMember].Load() }

// Transitions reports the morph edges taken so far, write→read first.
// Safe from any goroutine.
func (c *core[I]) Transitions() []Transition {
	var out []Transition
	for _, to := range [2]int{readMember, writeMember} {
		if n := c.flips[to].Load(); n > 0 {
			out = append(out, Transition{From: c.specs[1-to].name, To: c.specs[to].name, N: n})
		}
	}
	return out
}

// normCap rounds a requested capacity up to a power of two ≥ 2 (the
// member constructors' requirement).
func normCap(n int) int {
	p := 2
	for p < n {
		p <<= 1
	}
	return p
}
