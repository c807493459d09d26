package txn

import "amp/internal/stm"

// managers maps -cm names to DSTM contention-manager factories (one
// manager instance per transaction attempt, matching WithContentionManager).
var managers = map[string]func() stm.ContentionManager{
	"aggressive": func() stm.ContentionManager { return stm.AggressiveManager{} },
	"backoff":    func() stm.ContentionManager { return &stm.BackoffManager{} },
}

// dstmKeyspace backs the keyspace with the obstruction-free DSTM engine:
// per-tvar locators acquired by CAS, a status-word CAS to commit, and the
// selected contention manager arbitrating conflicts.
type dstmKeyspace struct {
	stm *stm.OFSTM
	dir dir[stm.OFTVar[cell]]
	ctr *stm.OFTVar[int64]
}

func newDSTM(cm string) *dstmKeyspace {
	factory := managers[cm] // New validated the name already
	return &dstmKeyspace{
		stm: stm.NewOF(stm.WithContentionManager(factory)),
		ctr: stm.NewOFTVar[int64](0),
	}
}

func (k *dstmKeyspace) cellOf(key string) *stm.OFTVar[cell] {
	return k.dir.getOrCreate(key, func() *stm.OFTVar[cell] {
		return stm.NewOFTVar(cell{})
	})
}

// Get is the fast path; OFTVar.Load impatiently aborts in-flight writers,
// which is the book's policy for non-transactional reads.
func (k *dstmKeyspace) Get(key string) (int64, bool) {
	c := k.dir.get(key)
	if c == nil {
		return 0, false
	}
	v := c.Load()
	return v.v, v.present
}

// Set, Del, Incr, Inc and SetCounter are one-object commits
// (stm.OFTVar.Update): one pre-committed locator, no OFTx.
func (k *dstmKeyspace) Set(key string, v int64) (inserted bool) {
	k.cellOf(key).Update(k.stm, func(old *cell) *cell {
		inserted = !old.present
		return &cell{v: v, present: true}
	})
	return inserted
}

func (k *dstmKeyspace) Del(key string) (removed bool) {
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

func (k *dstmKeyspace) Incr(key string, delta int64) (out int64) {
	k.cellOf(key).Update(k.stm, func(old *cell) *cell {
		out = old.v + delta // absent reads as 0
		return &cell{v: out, present: true}
	})
	return out
}

func (k *dstmKeyspace) Inc() (old int64) {
	k.ctr.Update(k.stm, func(cur *int64) *int64 {
		old = *cur
		next := old + 1
		return &next
	})
	return old
}

func (k *dstmKeyspace) Counter() int64 { return k.ctr.Load() }

// Range enumerates present keys with their committed values; see
// Keyspace.Range for the consistency contract.
func (k *dstmKeyspace) Range(f func(key string, v int64) bool) {
	k.dir.each(func(key string, c *stm.OFTVar[cell]) bool {
		v := c.Load()
		if !v.present {
			return true
		}
		return f(key, v.v)
	})
}

// SetCounter overwrites the counter (snapshot restore).
func (k *dstmKeyspace) SetCounter(v int64) {
	k.ctr.Update(k.stm, func(*int64) *int64 { return &v })
}

func (k *dstmKeyspace) Exec(ops []Op) []Result {
	// Same up-front resolution as TL2: reads of absent keys validate
	// against the key's (tombstone) tvar.
	cells := make([]*stm.OFTVar[cell], len(ops))
	for i, op := range ops {
		if op.Kind == Get || op.Kind == Set || op.Kind == Del || op.Kind == Incr {
			cells[i] = k.cellOf(op.Key)
		}
	}
	out := make([]Result, len(ops))
	k.stm.Atomic(func(tx *stm.OFTx) {
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

func (k *dstmKeyspace) Commits() int64 { return k.stm.Commits() }
func (k *dstmKeyspace) Aborts() int64  { return k.stm.Aborts() }
