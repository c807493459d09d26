// The data plane: N single-goroutine shards in front of the shared
// concurrent structures. Keyed commands (the set and map families) hash
// to a shard that owns a private hash set and a string dictionary —
// private too under -txn off, the one transactional keyspace shared by
// every shard otherwise — so per-key traffic is contention-local by
// construction: partitioning first, as McKenney puts it. Unkeyed
// commands (stack, queue, counter, priority queue) are spread round-robin
// over the shards but execute against shared structures; the shards then
// serve as a bounded thread set, which is exactly what the combining tree
// and the metrics counters need: shard i always calls with ThreadID i.
// Commands travel in batches — contiguous per-connection runs —
// flat-combined by whoever holds the shard's combiner lock: usually the
// submitting connection itself, which drains the shard's mailbox
// (internal/mailbox, a bounded mutex-guarded MPSC queue) and applies its
// own batch in place. Only a submitter that finds the lock taken
// publishes its batch, quietly, with a dedicated shard goroutine
// (spin-then-park) as the fallback when combiners collide. One reply
// slice per batch.
package server

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"amp/internal/core"
	"amp/internal/counting"
	"amp/internal/mailbox"
	"amp/internal/metrics"
	"amp/internal/txn"
)

// status encodes the shape of a reply.
type status uint8

const (
	stOK status = iota
	stInt
	stEmpty
	stFull
	stErr
)

// reply is the result of executing one command.
type reply struct {
	status status
	val    int64
	msg    string // stErr only
}

func errReply(format string, args ...any) reply {
	return reply{status: stErr, msg: fmt.Sprintf(format, args...)}
}

// batch is a contiguous run of commands from one connection (or one
// direct do call), bound for a single shard and answered as a unit: the
// shard fills replies — one per command, in order — and sends the slice
// on resp. Batches, their slices, and their reply channels are recycled
// through batchPool, so the hot path stops allocating once the pool is
// warm (the reply-channel pooling the ROADMAP asked for).
type batch struct {
	cmds    []Command
	replies []reply
	start   int64 // submit stamp on the engine's coarse clock (see engine.coarse)
	resp    chan []reply

	// Routing provenance, for staleness detection under live resharding:
	// the router the submitter consulted and the slot it picked. pinned
	// marks runs containing keyed commands — only those can go stale (an
	// unkeyed run is correct on any shard). A combiner that finds a
	// pinned batch whose slot no longer resolves to its shard redispatches
	// the commands through the current router instead of executing them.
	rt     *router
	slot   int32
	pinned bool
}

var batchPool = sync.Pool{
	New: func() any { return &batch{resp: make(chan []reply, 1)} },
}

func getBatch() *batch { return batchPool.Get().(*batch) }

func putBatch(b *batch) {
	b.reset()
	batchPool.Put(b)
}

func (b *batch) reset() {
	b.cmds = b.cmds[:0]
	b.replies = b.replies[:0]
	b.rt = nil
	b.slot = 0
	b.pinned = false
}

// router maps key slots to shards. The slice is immutable once published
// (engine.router swaps whole routers); the slot pointers are atomic so a
// reshard can flip individual slots from an aliased source shard to its
// freshly split half while the router stays live. Slot i of an N-slot
// router always resolves keys with keyShard(k, N) == i, and doubling
// preserves homes: (k mod 2N) mod N == k mod N, so splitting N→2N only
// ever moves keys from slot i to slot N+i.
type router struct {
	slots []atomic.Pointer[shard]
}

func (r *router) n() int             { return len(r.slots) }
func (r *router) shard(i int) *shard { return r.slots[i].Load() }

// shard owns a private set instance, a string-keyed dictionary, and an
// MPSC mailbox drained by whoever holds the combiner lock. Map commands
// route by the FNV-1a hash of their key (Command.ShardKey), then resolve
// collisions inside the dictionary by full-string chaining. The
// dictionary is whatever the resolved map row builds: a private table
// per shard, or — with the txn engine on — the one keyspace every shard
// shares, the same tvars EXEC commits against, which is what keeps plain
// map traffic and transactions mutually linearizable.
type shard struct {
	id   core.ThreadID
	set  rangeSet
	dict rangeMap
	mbox *mailbox.Mailbox[*batch]

	// incr serves HINCR: the dictionary's own atomic Incr when it has one
	// (the keyspace, which EXEC mutates from connection goroutines), else
	// Get-then-Set, atomic per key because HINCR is keyed and a private
	// dictionary has no writer but this shard's combiner.
	incr func(key string, delta int64) int64

	// comb is the combiner lock: whoever holds it is the shard's
	// single consumer, draining the mailbox and executing batches with
	// the shard's identity (holding comb is what makes id a valid dense
	// ThreadID for the width-bounded counters). A submitting connection
	// goroutine TryLocks it to combine on the spot — the uncontended
	// fast path costs zero scheduler round-trips — and the dedicated
	// shard goroutine Locks it as the fallback when producers collide.
	comb sync.Mutex
	// run is the combiner's drain scratch, guarded by comb.
	run []*batch
}

// shardQueueDepth bounds buffered batches per shard; senders back off
// when a shard is saturated, which is the natural backpressure (the
// mailbox's stop flag is the shutdown escape hatch, so a draining
// server cannot deadlock behind a wedged shard).
const shardQueueDepth = 128

// clockEvery bounds how stale the shard loop's amortized clock may get:
// the drain loop re-reads the wall clock after at most this many
// executed commands instead of once per command. On the pipelined hot
// path the clock read is a vDSO call that showed up at ~9% of the
// profile; one read per 32 commands makes it noise while keeping every
// latency observation within one refresh of the truth.
const clockEvery = 32

// engine is the assembled data plane.
type engine struct {
	opts Options

	// router is the live slot→shard map consulted by every submitter.
	// It is replaced wholesale on RESHARD (never mutated in place except
	// for the per-slot pointer flips the reshard itself performs under
	// the source shard's combiner lock).
	router atomic.Pointer[router]

	// all is every shard ever started, in registration order — the
	// canonical lock order for quiesce and the set abort must close.
	// aborted gates late registrations (a reshard racing shutdown).
	allMu   sync.Mutex
	all     []*shard
	aborted bool

	// reconfigMu serializes the whole-engine reconfigurations: SAVE,
	// BGSAVE's collect phase, RESTORE and RESHARD. Everything under it
	// sees a stable shard census.
	reconfigMu sync.Mutex

	// ksGate freezes EXEC commits during a quiesce: every other keyspace
	// writer runs under a shard combiner lock (which quiesce holds), but
	// EXEC commits on the connection goroutine. Quiesce takes the write
	// side after the combiner locks; EXEC holds the read side only around
	// the commit, never while waiting on a shard, so the order is safe.
	ksGate sync.RWMutex

	// Snapshot bookkeeping: background BGSAVE writers (stop waits for
	// them), completed and failed saves, and the last save's coarse stamp
	// and size. Cuts are numbered under reconfigMu (snapCut) and published
	// one at a time under snapMu, which guards snapDisk, the number of the
	// cut the file on disk holds: a writer overtaken by a newer cut drops
	// its image instead of renaming it over the newer one.
	snapWG    sync.WaitGroup
	snapSaves metrics.FlatCounter
	snapFails metrics.FlatCounter // snapshot writes that errored (SAVE or BGSAVE)
	snapLast  atomic.Int64        // coarse-clock stamp of the last completed save
	snapBytes atomic.Int64        // size of the last completed save
	snapMu    sync.Mutex
	snapCut   uint64
	snapDisk  uint64

	// topoGen is the reconfiguration seqlock: RESTORE and RESHARD — the
	// two paths that clear, refill or re-home keyed state under readers
	// that take no lock — bump it to odd before their first mutation and
	// back to even after their last, both under reconfigMu. Bypass readers
	// (readLocal) sample it before resolving a shard and re-check it after
	// the structure access, retrying through the mailbox — which waits out
	// the reconfiguration's combiner locks — on any overlap (engine.torn).
	// A plain flag would not do: a reader could observe torn state, then
	// find the flag already cleared; the generation comparison catches
	// that window.
	topoGen atomic.Uint64

	// setRow/mapRow are the resolved registry rows, kept so a reshard can
	// construct new shards with the configured backends.
	setRow row[rangeSet]
	mapRow row[rangeMap]

	pools      pools // queue, stack, pqueue: swapped whole by RESTORE, under the quiesce
	counter    counterBackend
	ks         txn.Keyspace // the txn engine (EXEC, TXSTATS); nil when Txn "off"
	rr         atomic.Uint32
	metrics    *metrics.Registry
	ext        metrics.Externals // closure-backed counters (bypass, txn)
	mops       [numOps]*metrics.Op
	batchSizes *metrics.SizeHistogram // commands combined per shard wakeup
	wg         sync.WaitGroup

	// The amortized clock. The time source is opts.clock (time.Now
	// outside tests); epoch is its reading at construction; coarse is the
	// latest published reading, as nanoseconds since epoch. Latency stamps
	// and observations both read coarse — no clock call at all on those
	// paths — and the clock is refreshed (one real read, one atomic store)
	// only once per parse-ahead round and every clockEvery executed
	// commands inside a combining sweep. Races between refreshers can step
	// the published value backwards by one refresh; observers clamp
	// negative differences to zero.
	epoch  time.Time
	coarse atomic.Int64

	// Read bypass state. bypass[f] says whether keyed family f's point
	// read (GET, HGET) may execute on the calling (connection) goroutine:
	// the resolved row's capability under Options.ReadBypass, fixed at
	// boot. The counters split served reads by path for STATS.
	bypass      [2]bool
	readBypass  metrics.FlatCounter // reads served on connection goroutines
	readMailbox metrics.FlatCounter // reads that rode a shard mailbox

	// Combiner-path split for STATS: drains performed inline by a
	// submitting connection goroutine versus by the dedicated shard
	// goroutine after a lost combiner race (or a spin/park wakeup).
	combCaller metrics.FlatCounter
	combShard  metrics.FlatCounter

	// applyHook, when set (tests only), runs on the combining goroutine
	// (the shard goroutine, or a caller holding the combiner lock)
	// before each command applies — the seam whitebox interleaving tests
	// use to wedge a shard mid-drain.
	applyHook func(Command)

	// reconfigHook, when set (tests only), runs inside each topoGen
	// mutation phase at its most inconsistent point — loadSnapshot between
	// the clear and the insert, reshard between a slot flip and the
	// movers' deletion — the seam the refused-bypass test wedges.
	reconfigHook func()
}

// newEngine builds the structures and starts one goroutine per shard.
func newEngine(o Options) (*engine, error) {
	setRow, err := lookup("set", o.Set, setBackends)
	if err != nil {
		return nil, err
	}
	mapRow, err := lookup("map", o.Map, mapBackends)
	if err != nil {
		return nil, err
	}
	if o.ReadBypass != "on" && o.ReadBypass != "off" {
		return nil, fmt.Errorf("server: unknown read-bypass mode %q (have on, off)", o.ReadBypass)
	}
	pools, err := newPools(o)
	if err != nil {
		return nil, err
	}
	newCounter, err := lookup("counter", o.Counter, counterBackends)
	if err != nil {
		return nil, err
	}
	newMetricsCounter, err := lookup("metrics-counter", o.MetricsCounter, counterBackends)
	if err != nil {
		return nil, err
	}
	ks, err := newKeyspace(o)
	if err != nil {
		return nil, err
	}

	// One storage plane: with the txn engine on, the keyspace is the map
	// row (every shard's dictionary; tvar reads are goroutine-agnostic,
	// hence readBypass) and the counter, and -map/-counter name nothing.
	var counter counterBackend
	if ks != nil {
		mapRow = row[rangeMap]{make: func(Options) rangeMap { return ks }, readBypass: true}
		counter = ksCounter{ks}
		o.Map, o.Counter = "keyspace", "keyspace"
	} else {
		counter = &ticketCounter{c: newCounter(o)}
	}

	factory := func() counting.Counter { return newMetricsCounter(o) }
	var measured []string
	for _, info := range ops {
		if info.metric != "" {
			measured = append(measured, info.metric)
		}
	}
	on := o.ReadBypass == "on"
	e := &engine{
		opts:       o,
		setRow:     setRow,
		mapRow:     mapRow,
		pools:      pools,
		counter:    counter,
		ks:         ks,
		metrics:    metrics.NewRegistry(factory, measured...),
		batchSizes: metrics.NewSizeHistogram(factory),
		epoch:      o.clock(),
		bypass:     [2]bool{famSet: on && setRow.readBypass, famMap: on && mapRow.readBypass},
	}
	e.ext = metrics.Externals{
		e.readBypass.External("read.bypass"),
		e.readMailbox.External("read.mailbox"),
		e.combCaller.External("shard.combine.caller"),
		e.combShard.External("shard.combine.shard"),
		// The shard goroutines' drain behavior, summed over shards: how
		// often a wait resolved during the spin phase versus actually
		// parking. The closures take the shard census at snapshot time,
		// after the loop below has populated it.
		metrics.External{Name: "shard.spin", Read: func() int64 {
			var n int64
			for _, s := range e.allShards() {
				n += s.mbox.Spins()
			}
			return n
		}},
		metrics.External{Name: "shard.park", Read: func() int64 {
			var n int64
			for _, s := range e.allShards() {
				n += s.mbox.Parks()
			}
			return n
		}},
		e.snapSaves.External("snap.save"),
		e.snapFails.External("snap.fail"),
	}
	if ks != nil {
		e.ext = append(e.ext,
			metrics.External{Name: "txn.commit", Read: ks.Commits},
			metrics.External{Name: "txn.abort", Read: ks.Aborts},
		)
	}
	for op, info := range ops {
		if info.metric != "" {
			e.mops[op] = e.metrics.Op(info.metric)
		}
	}
	rt := &router{slots: make([]atomic.Pointer[shard], o.Shards)}
	for i := 0; i < o.Shards; i++ {
		s := e.newShard(core.ThreadID(i))
		rt.slots[i].Store(s)
		e.register(s)
		go e.serve(s)
	}
	e.router.Store(rt)
	return e, nil
}

// newShard builds one shard with the configured backends; the caller
// registers it and starts its serve goroutine.
func (e *engine) newShard(id core.ThreadID) *shard {
	s := &shard{
		id:   id,
		set:  e.setRow.make(e.opts),
		dict: e.mapRow.make(e.opts),
		mbox: mailbox.New[*batch](shardQueueDepth, e.opts.SpinBudget),
		run:  make([]*batch, 0, shardQueueDepth),
	}
	if in, ok := s.dict.(interface{ Incr(string, int64) int64 }); ok {
		s.incr = in.Incr
	} else {
		s.incr = func(key string, delta int64) int64 {
			v, _ := s.dict.Get(key) // absent reads as 0
			v += delta
			s.dict.Set(key, v)
			return v
		}
	}
	return s
}

// register adds a shard to the census and accounts its serve goroutine;
// false when the engine already aborted (the shard must not start).
func (e *engine) register(s *shard) bool {
	e.allMu.Lock()
	defer e.allMu.Unlock()
	if e.aborted {
		return false
	}
	e.all = append(e.all, s)
	e.wg.Add(1)
	return true
}

// allShards snapshots the census: every shard started so far, in
// registration order (slot order at boot, split halves appended by
// reshard).
func (e *engine) allShards() []*shard {
	e.allMu.Lock()
	defer e.allMu.Unlock()
	return append([]*shard(nil), e.all...)
}

// stop terminates the shard goroutines after they finish draining every
// batch already accepted, and waits out any background snapshot writer.
// Callers must guarantee no further do/doBatch calls (the server waits
// for all connections first).
func (e *engine) stop() {
	e.abort()
	e.snapWG.Wait()
	e.wg.Wait()
}

// abort closes every shard mailbox: submitters stuck backing off
// against a saturated shard give up instead of blocking forever, new
// submissions fail fast, and each shard goroutine exits once it has
// drained what was already published. The server fires it when the
// shutdown drain deadline expires, so pipelined clients backing off in
// doBatch cannot deadlock the drain; stop fires it unconditionally.
// Idempotent (mailbox.Close is). The aborted flag keeps a racing reshard
// from starting shards whose mailboxes would never close: registration
// and abort serialize on allMu.
func (e *engine) abort() {
	e.allMu.Lock()
	e.aborted = true
	all := append([]*shard(nil), e.all...)
	e.allMu.Unlock()
	for _, s := range all {
		s.mbox.Close()
	}
}

// canBypass reports whether cmd may skip the shard mailbox and execute
// on the calling goroutine. Only read-pure keyed ops qualify, and only
// when the serving backend's reads are goroutine-agnostic (the resolved
// row's capability). Callers inside a MULTI window never ask: staged
// reads ride the tvar commit protocol.
func (e *engine) canBypass(cmd Command) bool {
	info := &ops[cmd.Op]
	return info.read && e.bypass[info.family]
}

// torn reports whether a reconfiguration's mutation phase overlapped a
// bypass read: g is the topoGen sample the reader took before resolving
// its shard. An odd sample means the read started mid-RESTORE or
// mid-RESHARD; a changed value means one began (and possibly finished)
// during it. Either way the read may have observed a half-restored
// keyspace, or a source shard whose movers were already deleted — and
// observing such a deletion means the structure access synchronized with
// the mutator (the backends publish with release stores), whose odd bump
// came first, so this re-load is guaranteed to see it. The read must
// retry through the mailbox.
func (e *engine) torn(g uint64) bool {
	return g&1 != 0 || e.topoGen.Load() != g
}

// readLocal serves one bypass-eligible read on the calling goroutine:
// the mailbox-free read fast path. The shard's structure is located
// exactly as the mailbox path would (same hash, same shard), but
// Contains/Get is invoked directly — under the structure's own epoch pin
// where it needs one — racing whatever batch the shard goroutine is
// applying. That race is safe precisely because the registry capability
// asserted it: the backends publish nodes with atomic stores and retire
// them through epoch domains, so a concurrent reader observes each write
// either entirely or not at all, and the read linearizes at its
// table/chain load inside the call window.
//
// What the read can wait for depends on the structure. On the lockfree,
// list-epoch and skip-epoch sets and the epoch map it is wait-free: a
// pointer chase, no lock, no CAS. On the keyspace (every HGET under the
// default -txn tl2) it is not: the key resolves through txn/dir.go's
// striped sync.RWMutex, so the read takes a reader lock that a first-touch
// key creation on the same stripe holds exclusively; only the tvar load
// after it is a plain atomic load.
//
// Program order is the caller's job: the server flushes (and awaits) any
// open mailbox run on the connection before calling readLocal, so a read
// never overtakes this connection's earlier writes.
//
// served=false means exactly one thing: a RESTORE or RESHARD overlapped
// the read (engine.torn). The result is discarded and the command must
// ride the mailbox instead.
func (e *engine) readLocal(cmd Command) (reply, bool) {
	// Sample the generation before the router: a reshard that completes
	// in between must be caught too, or the read could resolve a source
	// shard through the superseded router after its movers were deleted.
	g := e.topoGen.Load()
	rt := e.router.Load()
	s := rt.shard(keyShard(cmd.ShardKey(), rt.n()))
	var r reply
	switch cmd.Op {
	case OpGet:
		if cmd.Arg < sentinelGuardMin || cmd.Arg > sentinelGuardMax {
			e.readBypass.Inc()
			return errReply("key %d is reserved", cmd.Arg), true
		}
		r = reply{status: stInt, val: boolInt(s.set.Contains(int(cmd.Arg)))}
	case OpHGet:
		r = valueReply(s.dict.Get(cmd.Key))
	default:
		return errReply("cannot bypass %s", cmd.Op), true
	}
	if e.torn(g) {
		return reply{}, false
	}
	e.readBypass.Inc()
	return r, true
}

// do routes one command to its shard and waits for the reply.
func (e *engine) do(cmd Command) reply {
	if e.canBypass(cmd) {
		if r, served := e.readLocal(cmd); served {
			return r
		}
	}
	rt := e.router.Load()
	var si int
	pinned := cmd.Op.Keyed()
	if pinned {
		si = keyShard(cmd.ShardKey(), rt.n())
	} else {
		si = e.nextShard(rt)
	}
	b := getBatch()
	b.cmds = append(b.cmds, cmd)
	b.pinned = pinned
	b.start = e.refreshCoarse()
	replies, ok := e.doBatch(rt, si, b)
	if !ok {
		putBatch(b)
		return errReply("server shutting down")
	}
	r := replies[0]
	putBatch(b)
	return r
}

// nextShard spreads unkeyed runs round-robin over the router's slots.
func (e *engine) nextShard(rt *router) int { return int(e.rr.Add(1)-1) % rt.n() }

// doBatch executes a filled batch on slot si of router rt and returns
// its replies, one per command, in order. Callers stamp b.start and set
// b.pinned. ok is false when the engine aborted (or aborted while the
// shard mailbox was full); the batch was not executed and still belongs
// to the caller.
//
// The fast path never touches the mailbox at all: the caller bids for
// the shard's combiner lock first and, on success, drains whatever
// other producers already published (FIFO fairness), then applies its
// own batch right here on the connection goroutine — no enqueue, no
// reply-channel round-trip, no other goroutine involved. Only when
// another combiner already owns the shard does the caller publish the
// batch — quietly: it is about to bid for the lock again, so the parked
// shard goroutine is left alone — and wait, re-bidding once (the owner
// may have finished its final drain just before our publish) and
// otherwise kicking the dedicated shard goroutine. Against a full
// mailbox the publish backs off, yielding to a combiner, but gives up
// once abort closes the mailbox: a draining server must not leave
// connection goroutines waiting on a saturated shard forever.
//
// A concurrent RESHARD can strand the batch: its keys were routed under
// rt, but by execution time the current router may map them elsewhere.
// The staleness check runs under the shard's combiner lock, which is
// exactly what a reshard holds while it splits that shard, so a batch
// that passes the check executes against a slot assignment that cannot
// change until the lock is released (an alias-phase router swap can
// intervene, but aliasing maps the batch's keys to the same shard). A
// stale batch is redispatched per command through the current router;
// forward progress holds because redispatch always targets strictly
// newer routers.
func (e *engine) doBatch(rt *router, si int, b *batch) ([]reply, bool) {
	b.rt, b.slot = rt, int32(si)
	s := rt.shard(si)
	if s.comb.TryLock() {
		if s.mbox.Closed() {
			s.comb.Unlock()
			return nil, false
		}
		if e.staleBatch(b, s) {
			s.comb.Unlock()
			return e.redispatch(b), true
		}
		e.combine(s)
		rs := e.applyDirect(s, b)
		s.comb.Unlock()
		e.combCaller.Inc()
		return rs, true
	}
	if !s.mbox.PutQuiet(b) {
		return nil, false
	}
	if s.comb.TryLock() {
		e.combine(s)
		s.comb.Unlock()
		e.combCaller.Inc()
	} else {
		s.mbox.Kick()
	}
	return <-b.resp, true
}

// staleBatch reports whether a pinned batch's routing no longer holds:
// the router moved on and its slot no longer resolves to the shard the
// batch was queued for. Callers hold s.comb, so a false answer is
// stable for the duration of the critical section (the slot flip for
// keys homed on s happens under this same lock).
func (e *engine) staleBatch(b *batch, s *shard) bool {
	if !b.pinned {
		return false // unkeyed runs execute correctly on any shard
	}
	cur := e.router.Load()
	return cur != b.rt || cur.shard(int(b.slot)) != s
}

// redispatch replays a stale batch one command at a time through the
// current router, filling the batch's replies in order. Used directly
// by the caller-combining path (nothing held) and via a rescue
// goroutine from combine (which must not block while holding a
// combiner lock).
func (e *engine) redispatch(b *batch) []reply {
	for _, cmd := range b.cmds {
		b.replies = append(b.replies, e.do(cmd))
	}
	return b.replies
}

// refreshCoarse publishes a fresh coarse-clock reading and returns it:
// one real clock call, amortized over a parse-ahead round or clockEvery
// executed commands.
func (e *engine) refreshCoarse() int64 {
	v := e.opts.clock().Sub(e.epoch).Nanoseconds()
	e.coarse.Store(v)
	return v
}

// keyShard spreads keys over shards with a Fibonacci multiplicative hash
// (well-mixed high bits, any shard count).
func keyShard(key int64, n int) int {
	const fib64 = 0x9E3779B97F4A7C15
	return int((uint64(key) * fib64 >> 17) % uint64(n))
}

// serve is the dedicated shard goroutine: the fallback combiner. Under
// caller-combining it runs only when producers collide on the shard —
// a submitter that loses the combiner race kicks it — or on a genuine
// wakeup after idling. The blocking wait is the mailbox's
// spin-then-park WaitNonempty: a bounded number of empty polls rides
// out the gap between pipelined batches without a scheduler
// round-trip, only a genuinely idle shard parks, and a false return
// means closed-and-drained — the shutdown signal, replacing the
// closed-channel range.
func (e *engine) serve(s *shard) {
	defer e.wg.Done()
	for {
		if !s.mbox.WaitNonempty() {
			return // closed and fully drained
		}
		s.comb.Lock()
		e.combine(s)
		s.comb.Unlock()
		e.combShard.Inc()
	}
}

// combine drains and executes everything published to s's mailbox: the
// flat-combining pass (the book's Chs. 11–12 argument rendered at the
// shard mailbox). Each sweep takes every batch already published and
// applies the whole run against the backends before looking for more,
// amortizing one synchronization round-trip over the run; each batch is
// answered as soon as its own commands are done, so early submitters
// are not held hostage to the rest of the run.
//
// Callers must hold s.comb: the combiner lock serializes mailbox
// consumption (TryGet is single-consumer) and makes s.id a valid dense
// ThreadID for the width-bounded counters while combining.
//
// Two amortizations live in the loop. The clock: latencies are
// measured against a wall-clock reading refreshed every clockEvery
// executed commands, not one read per command. And the metrics:
// consecutive same-op commands within a batch fold into a single
// ObserveN — one ticket fetch and one bucket increment for the whole
// span — which is exactly the shape pipelined load has.
func (e *engine) combine(s *shard) {
	for {
		b, ok := s.mbox.TryGet()
		if !ok {
			return
		}
		run := append(s.run[:0], b)
		for len(run) < shardQueueDepth {
			more, ok := s.mbox.TryGet()
			if !ok {
				break
			}
			run = append(run, more)
		}
		// Record the run size before answering anyone: a caller that has
		// its replies is then guaranteed to see the observation too (the
		// resp send orders it), so STATS and tests read a consistent
		// histogram right after a round-trip.
		combined := 0
		for _, b := range run {
			combined += len(b.cmds)
		}
		e.batchSizes.Observe(int64(combined), s.id)
		now := e.coarse.Load() // no clock call: the round's refresh is recent
		stale := 0             // commands executed since the last refresh
		for _, b := range run {
			if e.staleBatch(b, s) {
				// A reshard moved this batch's keys off s while it sat in
				// the mailbox. Replay it through the current router on a
				// rescue goroutine — never synchronously: redispatch can
				// block on another shard's mailbox, and blocking while
				// holding s.comb could deadlock against a quiesce that
				// holds that shard and wants this one. The submitter is
				// still parked on b.resp; the rescue answers it.
				go func(b *batch) {
					e.redispatch(b)
					b.resp <- b.replies
				}(b)
				continue
			}
			e.applyBatch(s, b, &now, &stale)
			b.resp <- b.replies
		}
		// Drop the batch references: the batches are back in the pool
		// (or their owners' hands) the moment they are answered.
		for i := range run {
			run[i] = nil
		}
		s.run = run[:0]
	}
}

// applyDirect is the caller-combining fast path's tail: execute one
// batch that never entered the mailbox. Callers hold s.comb and have
// already drained the mailbox, so published batches from other
// producers are not overtaken.
func (e *engine) applyDirect(s *shard, b *batch) []reply {
	e.batchSizes.Observe(int64(len(b.cmds)), s.id)
	now := e.coarse.Load()
	stale := 0
	e.applyBatch(s, b, &now, &stale)
	return b.replies
}

// applyBatch executes one batch's commands under s.comb, filling
// b.replies in order. Consecutive same-op spans fold into one bulk
// latency observation, and now/stale thread the amortized clock
// through the caller's sweep: the wall clock is re-read only every
// clockEvery executed commands.
func (e *engine) applyBatch(s *shard, b *batch, now *int64, stale *int) {
	cmds := b.cmds
	for i := 0; i < len(cmds); {
		op := cmds[i].Op
		j := i
		for j < len(cmds) && cmds[j].Op == op {
			b.replies = append(b.replies, e.execute(s, cmds[j]))
			j++
		}
		if *stale += j - i; *stale >= clockEvery {
			*now = e.refreshCoarse()
			*stale = 0
		}
		if mop := e.mops[op]; mop != nil {
			d := time.Duration(*now - b.start)
			if d < 0 {
				d = 0 // a racing refresh stepped the clock back
			}
			mop.ObserveN(d, int64(j-i), s.id)
		}
		i = j
	}
}

// execute applies one command against the shard's set and dictionary or
// the shared structures. It runs under the shard's combiner lock, so
// s.id is a valid dense ThreadID for the width-bounded counters.
func (e *engine) execute(s *shard, cmd Command) reply {
	if e.applyHook != nil {
		e.applyHook(cmd)
	}
	info := &ops[cmd.Op]
	if info.read {
		e.readMailbox.Inc()
	}
	switch cmd.Op {
	case OpSet, OpGet, OpDel:
		if cmd.Arg < sentinelGuardMin || cmd.Arg > sentinelGuardMax {
			return errReply("key %d is reserved", cmd.Arg)
		}
		key := int(cmd.Arg)
		var changed bool
		switch cmd.Op {
		case OpSet:
			changed = s.set.Add(key)
		case OpGet:
			changed = s.set.Contains(key)
		default:
			changed = s.set.Remove(key)
		}
		return reply{status: stInt, val: boolInt(changed)}

	case OpHSet:
		return reply{status: stInt, val: boolInt(s.dict.Set(cmd.Key, cmd.Arg))}
	case OpHGet:
		return valueReply(s.dict.Get(cmd.Key))
	case OpHDel:
		return reply{status: stInt, val: boolInt(s.dict.Del(cmd.Key))}
	case OpHIncr:
		return reply{status: stInt, val: s.incr(cmd.Key, cmd.Arg)}

	case OpInc:
		return reply{status: stInt, val: e.counter.inc(s.id)}
	case OpRead:
		return reply{status: stInt, val: e.counter.read()}
	}

	// What is left is a pool verb: the row says which pool, and which half.
	if info.family < famQueue || info.family > famPQ {
		return errReply("cannot execute %s", cmd.Op)
	}
	if !info.put {
		return valueReply(e.pools[info.family].get())
	}
	switch err := e.pools[info.family].put(cmd.Arg); err {
	case nil:
		return reply{status: stOK}
	case errFull:
		return reply{status: stFull}
	default:
		return errReply("%v", err)
	}
}

func valueReply(v int64, ok bool) reply {
	if !ok {
		return reply{status: stEmpty}
	}
	return reply{status: stInt, val: v}
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// onOff spells a flag the way the -read-bypass option and STATS do.
func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}

// execTxn commits one staged MULTI buffer atomically through the
// transactional keyspace, returning one reply per staged command in
// order (in the window's scratch: valid until its next EXEC). It runs on the connection goroutine, not on any shard: cross-
// shard atomicity comes from the STM commit protocol, so the buffer
// never travels through the shard mailboxes at all.
func (e *engine) execTxn(ts *txnState) []reply {
	tops := ts.ops[:0]
	for _, cmd := range ts.staged {
		tops = append(tops, txn.Op{Kind: ops[cmd.Op].kind, Key: cmd.Key, Val: cmd.Arg})
	}
	ts.ops = tops
	// The read side of ksGate lets a quiescing snapshot (which already
	// holds every shard combiner, freezing all other keyspace writers)
	// freeze EXEC commits too — the one keyspace mutator that runs on a
	// connection goroutine. Held only around the commit; Exec never waits
	// on a shard, so this cannot deadlock against the quiesce lock order.
	e.ksGate.RLock()
	results := e.ks.Exec(tops)
	e.ksGate.RUnlock()
	replies := ts.replies[:0]
	for i, res := range results {
		switch tops[i].Kind {
		case txn.Get:
			replies = append(replies, valueReply(res.Val, res.Flag))
		case txn.Set, txn.Del:
			replies = append(replies, reply{status: stInt, val: boolInt(res.Flag)})
		default: // Incr, CtrInc, CtrRead
			replies = append(replies, reply{status: stInt, val: res.Val})
		}
	}
	ts.replies = replies
	return replies
}

// txStatsLine renders the TXSTATS reply (callers guarantee e.ks != nil).
func (e *engine) txStatsLine() string {
	return fmt.Sprintf("engine=%s cm=%s commits=%d aborts=%d",
		e.opts.Txn, e.opts.CM, e.ks.Commits(), e.ks.Aborts())
}

// statsBody renders the STATS reply body: the configuration, then one
// line per measured op from the metrics registry and the external
// transaction counters.
func (e *engine) statsBody() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "shards %d\n", e.router.Load().n())
	fmt.Fprintf(&sb, "backend set=%s map=%s queue=%s stack=%s pqueue=%s counter=%s metrics-counter=%s\n",
		e.opts.Set, e.opts.Map, e.opts.Queue, e.opts.Stack, e.opts.PQueue, e.opts.Counter, e.opts.MetricsCounter)
	fmt.Fprintf(&sb, "snap %s\n", e.snapLine())
	if e.ks != nil {
		fmt.Fprintf(&sb, "txn engine=%s cm=%s\n", e.opts.Txn, e.opts.CM)
	} else {
		sb.WriteString("txn off\n")
	}
	fmt.Fprintf(&sb, "read-bypass set=%s map=%s\n", onOff(e.bypass[famSet]), onOff(e.bypass[famMap]))
	fmt.Fprintf(&sb, "mailbox depth=%d spin-budget=%d\n", shardQueueDepth, e.router.Load().shard(0).mbox.SpinBudget())
	sb.WriteString(e.batchSizes.Format("shard.batch"))
	sb.WriteString(e.metrics.Format())
	sb.WriteString(e.ext.Format())
	return sb.String()
}

// snapLine renders the snapshot STATS row: completed saves, failed
// writes (the only trace a failed BGSAVE leaves — its write runs after
// the OK reply), the age of the freshest save on the coarse clock, and
// its encoded size.
func (e *engine) snapLine() string {
	saves, fails := e.snapSaves.Value(), e.snapFails.Value()
	if saves == 0 {
		return fmt.Sprintf("saves=0 fails=%d last-age=never bytes=0", fails)
	}
	age := time.Duration(e.refreshCoarse() - e.snapLast.Load())
	if age < 0 {
		age = 0
	}
	return fmt.Sprintf("saves=%d fails=%d last-age=%s bytes=%d",
		saves, fails, age.Round(time.Millisecond), e.snapBytes.Load())
}

// Stats exposes the metrics snapshot (for the expvar endpoint).
func (e *engine) snapshot() []metrics.OpStats {
	return append(e.metrics.Snapshot(), e.ext.Snapshot()...)
}
