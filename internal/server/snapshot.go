// Durability and elasticity: point-in-time snapshots (SAVE/BGSAVE),
// restart-with-restore (RESTORE, Server.Restore), and live N→2N
// resharding (RESHARD).
//
// A snapshot is collected under a full quiesce — every shard's combiner
// lock held at a batch boundary, in registration order, plus the EXEC
// gate — so the image is a consistent cut of the history: every command
// answered before SAVE returned is in it, no torn transactions, no
// half-applied batches. Commands still in flight (submitted, not yet
// answered) linearize after the cut, which linearizability permits.
//
// Resharding doubles the shard count without stopping traffic. Slot
// doubling has a convenient algebra: keyShard(k, 2N) is either
// keyShard(k, N) or keyShard(k, N)+N, so shard i's keys split only
// between slots i and i+N. The reshard first publishes a 2N router
// whose new slots alias the old shards (routing-correct immediately),
// then per source shard — under that shard's combiner lock, at a batch
// boundary — copies the movers into a fresh shard, flips slot i+N to
// it, and deletes the movers from the source. In-flight batches routed
// under a superseded router are detected by the combiner's staleness
// check and replayed through the current router (engine.redispatch),
// so no command is lost, duplicated, or executed against a stale home.
// A dictionary the shards share (the keyspace, with the txn engine on)
// has no per-shard home: reshard leaves it alone, and collect and
// loadSnapshot visit it once (dicts).
//
// RESTORE and RESHARD mutate keyed state under bypass readers, which
// hold no shard lock; both bracket their mutation phase with the
// engine.topoGen seqlock, and readLocal refuses any read that overlapped
// one.
package server

import (
	"fmt"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"amp/internal/core"
	"amp/internal/snapshot"
	"amp/internal/strmap"
)

// snapFile is the snapshot filename under Options.SnapshotDir: SAVE and
// BGSAVE write it, ampserved -restore typically reads it back.
const snapFile = "ampserved.snap"

func (e *engine) snapPath() string {
	return filepath.Join(e.opts.SnapshotDir, snapFile)
}

// dicts returns each dictionary the shards use, once. The shards either
// own one each or all share the keyspace, so comparing against the first
// is the whole dedup.
func dicts(shards []*shard) []rangeMap {
	out := make([]rangeMap, 0, len(shards))
	for _, s := range shards {
		if len(out) == 0 || s.dict != out[0] {
			out = append(out, s.dict)
		}
	}
	return out
}

// quiesce freezes the data plane: every shard combiner acquired in
// registration order (the canonical order — reshard appends, never
// reorders), each mailbox drained to a batch boundary, then the EXEC
// gate. The returned slice is what release must be given. Callers hold
// reconfigMu, so the census cannot grow mid-acquisition.
//
// Lock order argument: quiesce is the only path that holds more than
// one combiner at a time, and it acquires in one global order. The
// ksGate write side is taken after every combiner; the only read-side
// holder (execTxn) never waits on a combiner while holding it. Rescue
// goroutines spawned by the drains park on mailboxes, not locks, and
// quiesce never waits for them — their batches simply linearize after
// the cut.
func (e *engine) quiesce() []*shard {
	shards := e.allShards()
	for _, s := range shards {
		s.comb.Lock()
		e.combine(s)
	}
	e.ksGate.Lock()
	return shards
}

// release undoes quiesce in reverse order.
func (e *engine) release(shards []*shard) {
	e.ksGate.Unlock()
	for i := len(shards) - 1; i >= 0; i-- {
		shards[i].comb.Unlock()
	}
}

// collect reads every family's logical state into a snapshot image.
// Callers hold the full quiesce, so plain Range calls observe a frozen
// structure and the unkeyed families can be drained and refilled
// without a concurrent producer interleaving.
func (e *engine) collect(shards []*shard) (*snapshot.State, error) {
	st := &snapshot.State{Shards: int64(e.router.Load().n())}

	for _, s := range shards {
		s.set.Range(func(x int) bool {
			st.Set = append(st.Set, int64(x))
			return true
		})
	}
	sort.Slice(st.Set, func(i, j int) bool { return st.Set[i] < st.Set[j] })

	for _, d := range dicts(shards) {
		d.Range(func(k string, v int64) bool {
			st.Map = append(st.Map, snapshot.Entry{Key: k, Val: v})
			return true
		})
	}
	sort.Slice(st.Map, func(i, j int) bool { return st.Map[i].Key < st.Map[j].Key })
	st.Counter = e.counter.read()

	// The pools have no iterators — put and get are the whole object — so
	// collect drains and refills them. Safe under the quiesce (no
	// concurrent producer or consumer), and the refill cannot overflow a
	// bounded backend: it returns exactly what was just removed.
	for f := famQueue; f <= famPQ; f++ {
		p, img := e.pools[f], poolImage(st, f)
		for v, ok := p.get(); ok; v, ok = p.get() {
			*img = append(*img, v)
		}
		if f == famStack {
			slices.Reverse(*img) // popped top first; stored, and refilled, bottom first
		}
		for _, v := range *img {
			if err := p.put(v); err != nil {
				return nil, fmt.Errorf("snapshot: %s refill: %v", f, err)
			}
		}
	}
	return st, nil
}

// poolImage is where a snapshot keeps pool family f's items, in the order
// that refills it: queue head first, stack bottom first, priorities
// ascending.
func poolImage(st *snapshot.State, f family) *[]int64 {
	switch f {
	case famQueue:
		return &st.Queue
	case famStack:
		return &st.Stack
	}
	return &st.PQ
}

// save serves SAVE and BGSAVE: collect a consistent cut under the
// quiesce, release the data plane, then encode and write — outside the
// quiesce, so the stall seen by concurrent clients is the cut, not the
// disk. SAVE writes before answering and reports a write error. BGSAVE
// writes on a background goroutine (stop waits for it) and answers as
// soon as the cut is taken, so its OK promises only the cut: a failed
// background write counts into the snap.fail STATS row (the `snap ...
// fails=` column), which is what operators must watch.
//
// Writers publish one at a time and in cut order: one whose cut is older
// than the image already on disk drops it — counting neither a save nor a
// fail — so a slow BGSAVE cannot rename its file over a later SAVE's, and
// SAVE's OK keeps meaning "the file covers everything answered before it".
func (e *engine) save(background bool) reply {
	e.reconfigMu.Lock()
	shards := e.quiesce()
	st, err := e.collect(shards)
	e.release(shards)
	e.snapCut++
	cut := e.snapCut
	e.reconfigMu.Unlock()
	if err != nil {
		return errReply("%v", err)
	}
	write := func() reply {
		e.snapMu.Lock()
		defer e.snapMu.Unlock()
		if cut < e.snapDisk {
			return reply{status: stOK} // the file already covers this cut
		}
		n, err := snapshot.Write(e.snapPath(), st)
		if err != nil {
			e.snapFails.Inc()
			return errReply("%v", err)
		}
		e.snapDisk = cut
		e.snapLast.Store(e.refreshCoarse())
		e.snapBytes.Store(int64(n))
		e.snapSaves.Inc()
		return reply{status: stOK}
	}
	if !background {
		return write()
	}
	e.snapWG.Add(1)
	go func() {
		defer e.snapWG.Done()
		write()
	}()
	return reply{status: stOK}
}

// loadSnapshot replaces the engine's entire logical state with st: the
// RESTORE verb and Server.Restore both land here. The shard topology is
// kept as-is — st.Shards records the count at save time for inspection,
// but the image routes correctly onto any topology (restore hashes
// every key through the live router).
//
// The load is all-or-nothing. Everything that can reject an image —
// reserved sentinel values, bounded queue/pqueue capacities, priority
// ranges — is validated first by filling fresh scratch instances of the
// pools, before any live state is touched; a refused
// snapshot returns an error with the store exactly as it was. Only then
// does the mutation phase run, under the full quiesce, with no failure
// paths left: clear the keyed families, insert the image, and swap the
// scratch pools in.
//
// Mailbox and EXEC traffic cannot observe the half-restored keyspace
// (the quiesce holds every combiner lock and the ksGate), and neither
// can the read bypass: the mutation phase is bracketed by
// topoGen increments, and readLocal re-checks the generation after
// every structure access, retrying through the mailbox on
// overlap.
func (e *engine) loadSnapshot(st *snapshot.State) error {
	for _, x := range st.Set {
		if x < sentinelGuardMin || x > sentinelGuardMax {
			return fmt.Errorf("snapshot: set member %d is reserved", x)
		}
	}

	// Build the pools off-line: the configured backends apply their own
	// capacity and range checks element by element, so an image saved under
	// a roomier configuration (or hand-forged) is rejected here, before the
	// live structures are cleared.
	scratch, err := newPools(e.opts)
	if err != nil {
		return err
	}
	for f := famQueue; f <= famPQ; f++ {
		for _, v := range *poolImage(st, f) {
			if err := scratch[f].put(v); err != nil {
				return fmt.Errorf("snapshot: %s restore: %v", f, err)
			}
		}
	}

	e.reconfigMu.Lock()
	defer e.reconfigMu.Unlock()
	shards := e.quiesce()
	defer e.release(shards)

	// Mutation phase: no failure paths from here on. The odd generation
	// sends concurrent bypass reads to the mailbox (engine.topoGen).
	e.topoGen.Add(1)
	defer e.topoGen.Add(1) // even again before the quiesce releases

	// Clear: collect keys first, then delete (no mutation mid-Range).
	for _, s := range shards {
		var keys []int
		s.set.Range(func(x int) bool { keys = append(keys, x); return true })
		for _, x := range keys {
			s.set.Remove(x)
		}
	}
	for _, d := range dicts(shards) {
		var keys []string
		d.Range(func(k string, v int64) bool { keys = append(keys, k); return true })
		for _, k := range keys {
			d.Del(k)
		}
	}

	if e.reconfigHook != nil {
		e.reconfigHook() // tests: wedge between clear and insert
	}

	// Insert, routing keyed state through the live router.
	rt := e.router.Load()
	for _, x := range st.Set {
		rt.shard(keyShard(x, rt.n())).set.Add(int(x))
	}
	for _, ent := range st.Map {
		rt.shard(keyShard(int64(strmap.Hash(ent.Key)), rt.n())).dict.Set(ent.Key, ent.Val)
	}
	e.counter.set(st.Counter)

	// The pools swap wholesale to the pre-filled scratch structures. Safe
	// under the quiesce: the field is only read by combiners (all parked
	// on their shard locks) and by collect (which runs under the same
	// quiesce).
	e.pools = scratch
	return nil
}

// restoreFrom serves the RESTORE verb. The client names a snapshot
// file, not a path: the name is resolved under -snapshot-dir, and
// anything containing a path separator or dot-dot is rejected, so a TCP
// client can only reach snapshots the operator put next to the server's
// own (and cannot probe or slurp arbitrary server-side files). Booting
// with -restore (Server.Restore) still accepts a full operator-given
// path.
func (e *engine) restoreFrom(name string) reply {
	if name == "" || name == "." || name == ".." || strings.ContainsAny(name, `/\`) {
		return errReply("RESTORE takes a snapshot filename under -snapshot-dir, not a path")
	}
	st, err := snapshot.Read(filepath.Join(e.opts.SnapshotDir, name))
	if err != nil {
		return errReply("%v", err)
	}
	if err := e.loadSnapshot(st); err != nil {
		return errReply("%v", err)
	}
	return reply{status: stOK}
}

// reshard serves RESHARD n: split every shard in two, live. Only exact
// doubling is supported (the slot algebra above is what makes the
// migration per-shard local), and the target must fit under MaxShards —
// the bound the counting structures were sized to at boot.
func (e *engine) reshard(n int) error {
	e.reconfigMu.Lock()
	defer e.reconfigMu.Unlock()
	old := e.router.Load()
	if n != 2*old.n() {
		return fmt.Errorf("reshard target %d is not double the current %d shards", n, old.n())
	}
	if n > e.opts.MaxShards {
		return fmt.Errorf("reshard target %d exceeds -max-shards %d", n, e.opts.MaxShards)
	}

	// Mutation phase, bracketed like loadSnapshot's: a bypass read that
	// overlaps any of it could resolve a source shard whose movers are
	// already gone, so all of them ride the mailbox until the last split.
	e.topoGen.Add(1)
	defer e.topoGen.Add(1)

	// Phase A: publish the doubled router with every new slot aliasing
	// its source shard. Routing under it is correct immediately — slot
	// i and slot i+N resolve to the shard that owns both key ranges —
	// and batches routed under the old router start failing the
	// staleness check, which replays them here.
	nr := &router{slots: make([]atomic.Pointer[shard], n)}
	half := old.n()
	for i := 0; i < half; i++ {
		s := old.shard(i)
		nr.slots[i].Store(s)
		nr.slots[half+i].Store(s)
	}
	e.router.Store(nr)

	// Phase B: per source shard — under its combiner lock, at a batch
	// boundary — copy the movers out, start the split half, flip the
	// slot, delete the movers. Copy→flip→delete ordering means a key is
	// always reachable through at least one slot, and the flip happens
	// under the same lock the staleness check runs under, so no batch
	// executes against the source after its keys left.
	for i := 0; i < half; i++ {
		src := old.shard(i)
		ns := e.newShard(core.ThreadID(half + i))

		src.comb.Lock()
		e.combine(src)

		var movedSet []int
		src.set.Range(func(x int) bool {
			if keyShard(int64(x), n) == half+i {
				movedSet = append(movedSet, x)
			}
			return true
		})
		for _, x := range movedSet {
			ns.set.Add(x)
		}

		var movedKeys []string
		var movedVals []int64
		if ns.dict != src.dict { // a shared dictionary has no per-shard home to move
			src.dict.Range(func(k string, v int64) bool {
				if keyShard(int64(strmap.Hash(k)), n) == half+i {
					movedKeys = append(movedKeys, k)
					movedVals = append(movedVals, v)
				}
				return true
			})
			for j, k := range movedKeys {
				ns.dict.Set(k, movedVals[j])
			}
		}

		if !e.register(ns) {
			src.comb.Unlock()
			return fmt.Errorf("server shutting down")
		}
		go e.serve(ns)
		nr.slots[half+i].Store(ns)
		if e.reconfigHook != nil {
			e.reconfigHook() // tests: wedge between the flip and the deletion
		}

		for _, x := range movedSet {
			src.set.Remove(x)
		}
		for _, k := range movedKeys {
			src.dict.Del(k)
		}
		src.comb.Unlock()
	}
	return nil
}

// doReshard wraps reshard for the protocol path.
func (e *engine) doReshard(n int) reply {
	if err := e.reshard(n); err != nil {
		return errReply("%v", err)
	}
	return reply{status: stOK}
}
