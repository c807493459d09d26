package txn

import "amp/internal/stm"

// tl2Keyspace backs the keyspace with the lock-based TL2-style engine:
// commit-time versioned write locks taken in tvar-id order, so an EXEC
// touching keys on many server shards commits atomically without any
// coordination between the shards themselves.
type tl2Keyspace struct {
	stm *stm.STM
	dir dir[stm.TVar[cell]]
	ctr *stm.TVar[int64]
}

func newTL2() *tl2Keyspace {
	return &tl2Keyspace{stm: stm.New(), ctr: stm.NewTVar[int64](0)}
}

func (k *tl2Keyspace) cellOf(key string) *stm.TVar[cell] {
	return k.dir.getOrCreate(key, func() *stm.TVar[cell] { return stm.NewTVar(cell{}) })
}

// Get is the read-only fast path: a key with no tvar has never been
// written (linearizes at the directory lookup), and TVar.Load returns a
// whole committed cell atomically.
func (k *tl2Keyspace) Get(key string) (int64, bool) {
	c := k.dir.get(key)
	if c == nil {
		return 0, false
	}
	v := c.Load()
	return v.v, v.present
}

// Set, Del, Incr, Inc and SetCounter are one-location commits
// (stm.TVar.Update): the tvar's versioned lock and the clock, no Tx.
func (k *tl2Keyspace) Set(key string, v int64) (inserted bool) {
	k.cellOf(key).Update(k.stm, func(old *cell) *cell {
		inserted = !old.present
		return &cell{v: v, present: true}
	})
	return inserted
}

func (k *tl2Keyspace) Del(key string) (removed bool) {
	c := k.dir.get(key)
	if c == nil {
		return false
	}
	c.Update(k.stm, func(old *cell) *cell {
		if removed = old.present; !removed {
			return nil
		}
		return &cell{}
	})
	return removed
}

func (k *tl2Keyspace) Incr(key string, delta int64) (out int64) {
	k.cellOf(key).Update(k.stm, func(old *cell) *cell {
		out = old.v + delta // absent reads as 0
		return &cell{v: out, present: true}
	})
	return out
}

func (k *tl2Keyspace) Inc() (old int64) {
	k.ctr.Update(k.stm, func(cur *int64) *int64 {
		old = *cur
		next := old + 1
		return &next
	})
	return old
}

func (k *tl2Keyspace) Counter() int64 { return k.ctr.Load() }

// Range enumerates present keys with their committed values; see
// Keyspace.Range for the consistency contract.
func (k *tl2Keyspace) Range(f func(key string, v int64) bool) {
	k.dir.each(func(key string, c *stm.TVar[cell]) bool {
		v := c.Load()
		if !v.present {
			return true
		}
		return f(key, v.v)
	})
}

// SetCounter overwrites the counter (snapshot restore).
func (k *tl2Keyspace) SetCounter(v int64) {
	k.ctr.Update(k.stm, func(*int64) *int64 { return &v })
}

func (k *tl2Keyspace) Exec(ops []Op) []Result {
	// Resolve every key's tvar up front — including keys only read, and
	// keys that do not exist yet. A read of an absent key must join the
	// read set of a real tvar or commit-time validation cannot see a
	// concurrent creator. getOrCreate is idempotent, so resolving outside
	// the transaction is safe across retries.
	cells := make([]*stm.TVar[cell], len(ops))
	for i, op := range ops {
		if op.Kind == Get || op.Kind == Set || op.Kind == Del || op.Kind == Incr {
			cells[i] = k.cellOf(op.Key)
		}
	}
	out := make([]Result, len(ops))
	k.stm.Atomic(func(tx *stm.Tx) {
		for i, op := range ops {
			switch op.Kind {
			case Get:
				c := cells[i].Get(tx)
				out[i] = Result{Val: c.v, Flag: c.present}
			case Set:
				out[i] = Result{Val: op.Val, Flag: !cells[i].Get(tx).present}
				cells[i].Set(tx, cell{v: op.Val, present: true})
			case Del:
				c := cells[i].Get(tx)
				out[i] = Result{Flag: c.present}
				if c.present {
					cells[i].Set(tx, cell{})
				}
			case Incr:
				v := cells[i].Get(tx).v + op.Val
				out[i] = Result{Val: v, Flag: true}
				cells[i].Set(tx, cell{v: v, present: true})
			case CtrInc:
				old := k.ctr.Get(tx)
				out[i] = Result{Val: old}
				k.ctr.Set(tx, old+1)
			case CtrRead:
				out[i] = Result{Val: k.ctr.Get(tx)}
			}
		}
	})
	return out
}

func (k *tl2Keyspace) Commits() int64 { return k.stm.Commits() }
func (k *tl2Keyspace) Aborts() int64  { return k.stm.Aborts() }
