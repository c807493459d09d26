package txn

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"amp/internal/core"
	"amp/internal/stm"
)

type snap = core.KV[cell]

// readAttempts reads keys in one transaction run directly on the engine's
// STM rather than through Exec, so that the body can record what every
// attempt saw — the aborted ones too, which Exec never shows.
func readAttempts(ks Keyspace, keys []string) (attempts [][]snap) {
	body := func(get func(key string) cell) {
		attempts = append(attempts, nil)
		for _, key := range keys {
			c := get(key) // panics out of the attempt when it aborts
			attempts[len(attempts)-1] = append(attempts[len(attempts)-1], snap{Key: key, Val: c})
			runtime.Gosched()
		}
	}
	switch k := ks.(type) {
	case *tl2Keyspace:
		k.stm.Atomic(func(tx *stm.Tx) {
			body(func(key string) cell { return k.cellOf(key).Get(tx) })
		})
	case *dstmKeyspace:
		k.stm.Atomic(func(tx *stm.OFTx) {
			body(func(key string) cell { return k.cellOf(key).Get(tx) })
		})
	}
	return attempts
}

// TestSnapshotConsistency is the opacity check: one writer interleaves
// one-location commits (Set, Incr, Del) with multi-key Exec commits and
// logs them in program order, readers run multi-key read transactions in
// both key orders, and core.CheckSnapshots then demands that every attempt
// — committed or aborted — saw values that all held at one point of the
// log. Every goroutine yields between steps so that attempts and commits
// interleave on any number of processors. It fails if the one-location
// commit skips its clock bump or publishes the version before the value
// (EXPERIMENTS.md, E17 addendum).
func TestSnapshotConsistency(t *testing.T) {
	newEach(t, func(t *testing.T, ks Keyspace) {
		const writes = 20000
		keys := []string{"k0", "k1", "k2", "k3"}
		// Both read orders end by re-reading their first key: with one
		// writer, a version published ahead of its value can only show
		// up as that key reading differently twice in one attempt.
		forward := append(slices.Clone(keys), keys[0])
		reversed := slices.Clone(keys)
		slices.Reverse(reversed)
		reversed = append(reversed, reversed[0])

		var done atomic.Bool
		var wg sync.WaitGroup
		attempts := make([][][]snap, 3)
		for r := range attempts {
			wg.Add(1)
			go func() {
				defer wg.Done()
				order := [][]string{forward, reversed}[r%2]
				gets := make([]Op, len(order))
				for i, key := range order {
					gets[i] = Op{Kind: Get, Key: key}
				}
				for !done.Load() {
					if r < 2 {
						attempts[r] = append(attempts[r], readAttempts(ks, order)...)
						continue
					}
					var seen []snap // the committed attempt, as a client sees it
					for i, res := range ks.Exec(gets) {
						seen = append(seen, snap{Key: order[i], Val: cell{v: res.Val, present: res.Flag}})
					}
					attempts[r] = append(attempts[r], seen)
					runtime.Gosched()
				}
			}()
		}

		// The writer. Every value it writes is the write's number, so a
		// present value names its version; model tracks what Incr adds to.
		model := make(map[string]cell)
		log := make([][]snap, 1, writes+1)
		for _, key := range keys {
			log[0] = append(log[0], snap{Key: key}) // never written reads as absent
		}
		for n := int64(1); n <= writes; n++ {
			a, b := keys[n%4], keys[(n%4+1+n/4%3)%4] // b != a
			val := cell{v: n, present: true}
			commit := []snap{{Key: a, Val: val}}
			switch n % 7 {
			case 0, 1:
				ks.Set(a, n)
			case 2, 3:
				ks.Incr(a, n-model[a].v)
			case 4:
				ks.Del(a) // of an absent key on some rounds: the no-op release
				commit[0].Val = cell{}
			case 5:
				ks.Exec([]Op{{Kind: Set, Key: a, Val: n}, {Kind: Incr, Key: b, Val: n - model[b].v}})
				commit = append(commit, snap{Key: b, Val: val})
			case 6:
				ks.Exec([]Op{{Kind: Del, Key: b}, {Kind: Set, Key: a, Val: n}})
				commit = append(commit, snap{Key: b})
			}
			for _, w := range commit {
				model[w.Key] = w.Val
			}
			log = append(log, commit)
			runtime.Gosched()
		}
		done.Store(true)
		wg.Wait()

		for r, got := range attempts {
			if err := core.CheckSnapshots(log, got); err != nil {
				t.Errorf("reader %d (%d attempts): %v", r, len(got), err)
			}
		}
	})
}
