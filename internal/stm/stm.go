// Package stm implements the Chapter 18 software transactional memory in
// the style the chapter converges on (and TL2, its chapter-notes
// reference): a global version clock, per-location versioned write-locks,
// invisible optimistic reads validated against the clock, and commit-time
// locking with write-back.
//
// The unit of transactional state is the TVar, the book's atomic object.
// Transactions run inside STM.Atomic, which re-executes the function until
// it commits:
//
//	x := stm.NewTVar(0)
//	s.Atomic(func(tx *stm.Tx) {
//		x.Set(tx, x.Get(tx)+1)
//	})
//
// Aborts propagate as a private panic that Atomic catches — user code
// simply stops at the failed Get/Set, so a transaction never observes an
// inconsistent snapshot (the "zombie" problem of §18.3 cannot arise).
//
// A transaction on one location needs none of that bookkeeping, and
// TVar.Update is that case on its own: lock the location's version word,
// read, take a fresh clock value, publish the value and then the version.
// Its read set would be one location it already holds locked, so there is
// nothing to record, order or validate. It keeps the lock word and the
// clock because they are all a concurrent Atomic attempt checks: one that
// read the location earlier fails commit validation (word locked, or newer
// than its read version), one that reads it later fails Get's
// post > readVersion test and retries on a fresh snapshot. So Update and
// Atomic are mutually linearizable and every attempt stays opaque.
package stm

import (
	"cmp"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"amp/internal/spin"
)

// STM is an isolated transactional universe: a global version clock plus
// commit/abort statistics. TVars from different STM instances must not be
// mixed in one transaction.
type STM struct {
	clock   atomic.Uint64
	commits atomic.Int64
	aborts  atomic.Int64
}

// New returns a fresh STM universe.
func New() *STM {
	return &STM{}
}

// Commits reports the number of committed transactions.
func (s *STM) Commits() int64 { return s.commits.Load() }

// Aborts reports the number of aborted-and-retried transaction attempts.
func (s *STM) Aborts() int64 { return s.aborts.Load() }

// lockedBit marks a version word held by a committing transaction.
const lockedBit = 1 << 63

// tvarIDs hands every TVar a unique identity for deadlock-free commit-time
// lock ordering.
var tvarIDs atomic.Uint64

// tvar is the type-erased view of a TVar that Tx works with.
type tvar interface {
	publish(staged any, wv uint64)
}

// TVar is a transactional variable holding a value of type T.
type TVar[T any] struct {
	id   uint64
	meta atomic.Uint64 // version | lockedBit
	val  atomic.Pointer[T]
}

// NewTVar returns a TVar initialized to init (version 0, unlocked).
func NewTVar[T any](init T) *TVar[T] {
	v := &TVar[T]{id: tvarIDs.Add(1)}
	v.val.Store(&init)
	return v
}

// publish installs the staged *T and releases the lock by publishing the
// new version (write-back, then unlock, in one store).
func (v *TVar[T]) publish(staged any, wv uint64) {
	v.val.Store(staged.(*T))
	v.meta.Store(wv) // release: wv has lockedBit clear
}

// Load reads the value non-transactionally. It is safe at any time but
// sees only committed values; use it for quiescent inspection.
func (v *TVar[T]) Load() T {
	return *v.val.Load()
}

// updateSpins is how often Update polls a locked word between yields.
const updateSpins = 64

// Update is the one-location commit: it locks v's version word, hands f
// the committed value, and publishes what f returns under a fresh clock
// value; a nil return releases the word unchanged, with no clock bump.
// Either way it counts as one commit. f runs under the lock: it must not
// block, panic or touch another TVar, and must treat *old as read-only.
// Update holds one lock and never waits while holding it, and Tx.commit
// aborts rather than waits on a locked word, so it cannot deadlock.
func (v *TVar[T]) Update(s *STM, f func(old *T) *T) {
	word := v.meta.Load()
	for spins := 1; word&lockedBit != 0 || !v.meta.CompareAndSwap(word, word|lockedBit); spins++ {
		if spins%updateSpins == 0 {
			runtime.Gosched()
		}
		word = v.meta.Load()
	}
	if next := f(v.val.Load()); next != nil {
		word = s.clock.Add(1)
		v.val.Store(next)
	}
	v.meta.Store(word)
	s.commits.Add(1)
}

// Get reads the TVar inside a transaction, aborting (and retrying the
// whole transaction) if a consistent value cannot be proven.
func (v *TVar[T]) Get(tx *Tx) T {
	if i, staged := tx.find(v.id); staged {
		return *tx.writes[i].staged.(*T)
	}
	pre := v.meta.Load()
	value := v.val.Load()
	post := v.meta.Load()
	if pre != post || post&lockedBit != 0 || post > tx.readVersion {
		tx.abort()
	}
	tx.reads = append(tx.reads, ref{v.id, &v.meta})
	return *value
}

// Set stages a write to the TVar; it becomes visible on commit. The one
// allocation is the *T that commit publishes as is.
func (v *TVar[T]) Set(tx *Tx, value T) {
	i, staged := tx.find(v.id)
	if !staged {
		tx.writes = slices.Insert(tx.writes, i, write{ref: ref{v.id, &v.meta}, v: v})
	}
	tx.writes[i].staged = &value
}

// ref is a read-set entry: a location's id and version word.
type ref struct {
	id   uint64
	meta *atomic.Uint64
}

// write is a write-set entry: the location and the *T staged for it.
type write struct {
	ref
	v      tvar
	staged any
}

// Tx is one transaction attempt. It must only be used within the Atomic
// call that created it; Atomic recycles it through txPool afterwards.
type Tx struct {
	stm         *STM
	readVersion uint64
	reads       []ref
	writes      []write // sorted by id, which is also the commit lock order
}

var txPool = sync.Pool{New: func() any { return new(Tx) }}

// find returns where id sits (or would be inserted) in the write set.
func (tx *Tx) find(id uint64) (int, bool) {
	return slices.BinarySearchFunc(tx.writes, id, func(w write, id uint64) int {
		return cmp.Compare(w.id, id)
	})
}

// abortSignal is the private panic payload that unwinds an attempt.
type abortSignal struct{}

func (tx *Tx) abort() {
	panic(abortSignal{})
}

// Retry aborts the current attempt unconditionally; combined with an
// updated precondition inside the transaction function this gives a crude
// "retry when state changes" (the transaction re-runs from scratch).
func (tx *Tx) Retry() {
	tx.abort()
}

// Atomic runs fn transactionally, retrying with randomized backoff until
// an attempt commits. fn must confine its shared-state access to Get/Set
// on TVars and must be safe to re-execute.
func (s *STM) Atomic(fn func(tx *Tx)) {
	tx := txPool.Get().(*Tx)
	tx.stm = s
	var backoff *spin.Backoff
	for !tx.attempt(fn) {
		s.aborts.Add(1)
		if backoff == nil {
			backoff = spin.NewBackoff(time.Microsecond, 128*time.Microsecond)
		}
		backoff.Pause()
	}
	s.commits.Add(1)
	txPool.Put(tx)
}

// attempt runs fn once, reporting whether it committed.
func (tx *Tx) attempt(fn func(tx *Tx)) (committed bool) {
	// Empty both sets, keeping their storage but not what it pointed at.
	clear(tx.reads)
	clear(tx.writes)
	tx.reads, tx.writes = tx.reads[:0], tx.writes[:0]
	tx.readVersion = tx.stm.clock.Load()
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(abortSignal); ok {
				return // aborted attempt; Atomic will retry
			}
			panic(r) // user panic: propagate
		}
	}()
	fn(tx)
	return tx.commit()
}

// commit implements the TL2 commit protocol: lock the write set in id
// order, take a write version, validate the read set, write back, release.
func (tx *Tx) commit() bool {
	if len(tx.writes) == 0 {
		// Read-only transactions validated every read against readVersion
		// already; nothing to publish.
		return true
	}
	// release unlocks the first n locations of the write set unchanged.
	release := func(n int) bool {
		for _, w := range tx.writes[:n] {
			w.meta.Store(w.meta.Load() &^ lockedBit)
		}
		return false
	}
	for i, w := range tx.writes {
		cur := w.meta.Load()
		if cur&lockedBit != 0 || cur > tx.readVersion || !w.meta.CompareAndSwap(cur, cur|lockedBit) {
			return release(i)
		}
	}
	writeVersion := tx.stm.clock.Add(1)
	// Validate reads: unlocked (unless we hold the lock) and not newer than
	// our snapshot.
	for _, r := range tx.reads {
		cur := r.meta.Load()
		if cur&lockedBit != 0 {
			if _, mine := tx.find(r.id); !mine {
				return release(len(tx.writes))
			}
			cur &^= lockedBit
		}
		if cur > tx.readVersion {
			return release(len(tx.writes))
		}
	}
	for _, w := range tx.writes {
		w.v.publish(w.staged, writeVersion)
	}
	return true
}
