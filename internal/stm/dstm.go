package stm

import (
	"sync/atomic"
	"time"

	"amp/internal/spin"
)

// This file implements the chapter's *obstruction-free* atomic object
// (§18.3, the DSTM-style FreeObject), complementing the lock-based TL2
// engine in stm.go. Every transactional variable points at a Locator —
// (owner transaction, old version, new version) — and a writer installs a
// fresh locator with a single CAS. The object's current value is decided
// by the owner's status word, so committing a whole transaction is one CAS
// on that word. Conflicts go to a pluggable ContentionManager, which is
// what makes the design obstruction-free rather than lock-free: progress
// is guaranteed only for a transaction that runs alone long enough.

// ofStatus is a transaction's lifecycle state.
type ofStatus int32

const (
	ofActive ofStatus = iota
	ofCommitted
	ofAborted
)

// ContentionManager arbitrates between a transaction and the active owner
// of an object it wants (§18.3.1). Implementations may abort the other
// transaction, pause, or abort the caller (by returning false).
type ContentionManager interface {
	// Resolve is called when `me` finds `other` holding an object in
	// ACTIVE state. After it returns, the caller re-reads the state.
	Resolve(me, other *OFTx)
}

// AggressiveManager always aborts the other transaction immediately.
type AggressiveManager struct{}

// Resolve aborts the conflicting owner.
func (AggressiveManager) Resolve(_, other *OFTx) {
	other.abortRemote()
}

// BackoffManager (the book's "Karma-lite") pauses with exponential backoff
// a bounded number of times, then aborts the other transaction.
type BackoffManager struct {
	attempts map[*OFTx]int
}

// backoffPatience is how many pauses a BackoffManager gives a rival before
// killing it.
const backoffPatience = 4

// Resolve backs off up to backoffPatience times per rival, then aborts it.
func (m *BackoffManager) Resolve(_, other *OFTx) {
	if m.attempts == nil {
		m.attempts = make(map[*OFTx]int)
	}
	m.attempts[other]++
	if m.attempts[other] > backoffPatience {
		other.abortRemote()
		return
	}
	time.Sleep(time.Duration(m.attempts[other]) * 2 * time.Microsecond)
}

// OFSTM is an obstruction-free transactional universe.
type OFSTM struct {
	commits    atomic.Int64
	aborts     atomic.Int64
	newManager func() ContentionManager
}

// OFOption configures an OFSTM.
type OFOption interface {
	apply(*OFSTM)
}

type managerOption struct {
	f func() ContentionManager
}

func (o managerOption) apply(s *OFSTM) { s.newManager = o.f }

// WithContentionManager selects the conflict policy; the factory runs once
// per transaction attempt. The default is AggressiveManager.
func WithContentionManager(f func() ContentionManager) OFOption {
	return managerOption{f: f}
}

// NewOF returns an obstruction-free STM universe.
func NewOF(opts ...OFOption) *OFSTM {
	s := &OFSTM{newManager: func() ContentionManager { return AggressiveManager{} }}
	for _, o := range opts {
		o.apply(s)
	}
	return s
}

// Commits reports committed transactions.
func (s *OFSTM) Commits() int64 { return s.commits.Load() }

// Aborts reports aborted attempts (self- or enemy-inflicted).
func (s *OFSTM) Aborts() int64 { return s.aborts.Load() }

// OFTx is one obstruction-free transaction attempt. Its status word is the
// single point of atomicity: rivals abort the transaction by CASing it.
type OFTx struct {
	status  atomic.Int32
	stm     *OFSTM
	manager ContentionManager
	reads   map[ofVar]any // var -> version pointer observed
}

// committedTx is the sentinel owner of freshly created variables.
var committedTx = func() *OFTx {
	tx := &OFTx{}
	tx.status.Store(int32(ofCommitted))
	return tx
}()

func (tx *OFTx) statusOf() ofStatus { return ofStatus(tx.status.Load()) }

// abortRemote is called by rivals: a CAS so it cannot revive a committed
// transaction.
func (tx *OFTx) abortRemote() {
	tx.status.CompareAndSwap(int32(ofActive), int32(ofAborted))
}

// checkActive aborts the attempt (by panic) if a rival killed it.
func (tx *OFTx) checkActive() {
	if tx.statusOf() != ofActive {
		panic(abortSignal{})
	}
}

// validateReads confirms every recorded read still returns the same
// version, so the attempt has observed a consistent snapshot throughout.
func (tx *OFTx) validateReads() bool {
	for v, expected := range tx.reads {
		if !v.validateRead(tx, expected) {
			return false
		}
	}
	return true
}

// ofVar is the type-erased view of an OFTVar.
type ofVar interface {
	validateRead(tx *OFTx, expected any) bool
}

// ofLocator is the book's Locator: versions plus the transaction that
// created them. oldV is always a committed version; newV becomes committed
// if (and only if) owner commits.
type ofLocator[T any] struct {
	owner *OFTx
	oldV  *T
	newV  *T
}

// OFTVar is an obstruction-free transactional variable.
type OFTVar[T any] struct {
	start atomic.Pointer[ofLocator[T]]
}

var _ ofVar = (*OFTVar[int])(nil)

// NewOFTVar returns a variable initialized to init.
func NewOFTVar[T any](init T) *OFTVar[T] {
	v := &OFTVar[T]{}
	v.start.Store(&ofLocator[T]{owner: committedTx, oldV: &init, newV: &init})
	return v
}

// Load reads the committed value non-transactionally (spinning out any
// in-flight writer).
func (v *OFTVar[T]) Load() T {
	for {
		loc := v.start.Load()
		switch loc.owner.statusOf() {
		case ofCommitted:
			return *loc.newV
		case ofAborted:
			return *loc.oldV
		default:
			loc.owner.abortRemote() // non-transactional reads are impatient
		}
	}
}

// Get reads the variable inside a transaction, recording the version for
// commit-time validation and re-validating the whole read set so the
// attempt never acts on an inconsistent snapshot (no zombies, §18.3).
func (v *OFTVar[T]) Get(tx *OFTx) T {
	for {
		tx.checkActive()
		loc := v.start.Load()
		var version *T
		if loc.owner == tx {
			version = loc.newV
		} else {
			switch loc.owner.statusOf() {
			case ofCommitted:
				version = loc.newV
			case ofAborted:
				version = loc.oldV
			default:
				tx.manager.Resolve(tx, loc.owner)
				continue
			}
			// A re-read must return the version the first read recorded.
			// Overwriting the record instead would let a rival's commit
			// between the two reads pass validation: a non-repeatable read.
			if prev, seen := tx.reads[v]; seen && prev != any(version) {
				panic(abortSignal{})
			}
			tx.reads[v] = version
		}
		if !tx.validateReads() {
			panic(abortSignal{})
		}
		return *version
	}
}

// Set writes the variable inside a transaction by acquiring its locator.
func (v *OFTVar[T]) Set(tx *OFTx, value T) {
	for {
		tx.checkActive()
		loc := v.start.Load()
		if loc.owner == tx {
			// We already own it; just update the version. Mutating a
			// published locator is safe: rivals read newV only after they
			// see our status committed, which our commit CAS publishes
			// after fn — and so every Set — has returned; while we are
			// active or aborted they read oldV, which never changes.
			loc.newV = &value
			return
		}
		fresh := &ofLocator[T]{owner: tx}
		switch loc.owner.statusOf() {
		case ofCommitted:
			fresh.oldV = loc.newV
		case ofAborted:
			fresh.oldV = loc.oldV
		default:
			tx.manager.Resolve(tx, loc.owner)
			continue
		}
		fresh.newV = &value
		if v.start.CompareAndSwap(loc, fresh) {
			if !tx.validateReads() {
				panic(abortSignal{})
			}
			return
		}
	}
}

// Update is the one-object commit: one CAS on start installs a locator
// that is born committed (owner committedTx, oldV the current committed
// version, newV what f returns), so it needs no OFTx, read set or status
// CAS. A nil return leaves the object unchanged. An active owner goes to
// the contention manager as in Set. f may run more than once and must
// treat *old as read-only.
func (v *OFTVar[T]) Update(s *OFSTM, f func(old *T) *T) {
	var manager ContentionManager
	for {
		loc := v.start.Load()
		var cur *T
		switch loc.owner.statusOf() {
		case ofCommitted:
			cur = loc.newV
		case ofAborted:
			cur = loc.oldV
		default:
			if manager == nil {
				manager = s.newManager()
			}
			manager.Resolve(nil, loc.owner)
			continue
		}
		next := f(cur)
		if next == nil || v.start.CompareAndSwap(loc, &ofLocator[T]{owner: committedTx, oldV: cur, newV: next}) {
			s.commits.Add(1)
			return
		}
	}
}

// validateRead reports whether the recorded version is still the one this
// variable would return.
func (v *OFTVar[T]) validateRead(tx *OFTx, expected any) bool {
	loc := v.start.Load()
	if loc.owner == tx {
		// We acquired the variable after reading it; consistent iff the
		// committed version we built on is the one we read.
		return any(loc.oldV) == expected
	}
	switch loc.owner.statusOf() {
	case ofCommitted:
		return any(loc.newV) == expected
	case ofAborted:
		return any(loc.oldV) == expected
	default:
		return false // a rival is mid-write: conservatively inconsistent
	}
}

// Atomic runs fn transactionally, retrying with backoff until it commits.
func (s *OFSTM) Atomic(fn func(tx *OFTx)) {
	var backoff *spin.Backoff
	for {
		if s.attempt(fn) {
			s.commits.Add(1)
			return
		}
		s.aborts.Add(1)
		if backoff == nil {
			backoff = spin.NewBackoff(time.Microsecond, 128*time.Microsecond)
		}
		backoff.Pause()
	}
}

func (s *OFSTM) attempt(fn func(tx *OFTx)) (committed bool) {
	tx := &OFTx{
		stm:     s,
		manager: s.newManager(),
		reads:   make(map[ofVar]any),
	}
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(abortSignal); ok {
				tx.abortRemote() // make sure rivals see us dead
				return
			}
			panic(r)
		}
	}()
	fn(tx)
	// Commit: validate reads, then decide with one CAS on the status word.
	if !tx.validateReads() {
		tx.abortRemote()
		return false
	}
	return tx.status.CompareAndSwap(int32(ofActive), int32(ofCommitted))
}
