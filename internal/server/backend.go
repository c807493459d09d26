// Backend registry: every command family is served by a structure from
// internal/, chosen by name at startup. This is the server-side rendering
// of the book's central theme — many synchronization strategies for one
// abstract object — and of the Adjusted Objects idea of selecting the
// implementation per workload. The queue, stack and priority-queue
// families are one abstract object here as in the book: the pool (§10.1),
// put() and get(), differing only in which item get answers.
package server

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"amp/internal/core"
	"amp/internal/counting"
	"amp/internal/hashset"
	"amp/internal/list"
	"amp/internal/pqueue"
	"amp/internal/queue"
	"amp/internal/skiplist"
	"amp/internal/stack"
	"amp/internal/strmap"
	"amp/internal/txn"
)

// Options selects the data-plane layout and its backends. The zero value
// is usable: every field has a default.
type Options struct {
	// Shards is the number of single-goroutine data-plane shards
	// (default GOMAXPROCS). Keyed commands hash to a shard; unkeyed
	// commands are spread round-robin.
	Shards int

	// MaxShards caps live resharding (default 2×Shards, never below
	// Shards): RESHARD may double the shard count until it would exceed
	// this bound. The width-bounded counting structures (combining
	// trees, counting networks, per-thread metrics) are sized to it at
	// boot, which is what makes post-reshard shard IDs valid ThreadIDs.
	MaxShards int

	// SnapshotDir is where SAVE/BGSAVE write the snapshot file
	// (default "."). See internal/snapshot for the format.
	SnapshotDir string

	// Backend names per family; see *Backends() for the valid names.
	Set            string // default "striped"
	Map            string // default "striped"; serves only with Txn "off"
	Queue          string // default "unbounded"
	Stack          string // default "treiber"
	PQueue         string // default "skip"
	Counter        string // default "combining"; serves only with Txn "off"
	MetricsCounter string // counting backend for metrics; default "cas"

	// ReadBypass controls the mailbox-free read fast path: "on" (default)
	// executes GET/HGET directly on the connection goroutine — under an
	// epoch pin where the backend needs one — whenever the serving
	// backend's reads are safe from any goroutine (see the readBypass
	// capability on the registry entries); "off" forces every read
	// through the shard mailbox. Reads on non-capable backends, and
	// reads staged inside MULTI windows, always take the mailbox/tvar
	// path regardless of this setting. engine.readLocal says where the
	// path is wait-free and where it takes a reader lock.
	ReadBypass string

	// Txn selects the transactional engine serving MULTI/EXEC and, when
	// enabled, the fast path of the string-map and counter families (so
	// plain traffic and transactions share one linearizable keyspace):
	// "tl2" (default), "dstm", or "off". CM selects the DSTM contention
	// manager (default "aggressive"); it is validated for every engine
	// but only dstm consults it.
	Txn string
	CM  string

	// SetCapacity is the initial per-shard hash-table size for both the
	// integer set and the string map (power of two, default 1024).
	// QueueCapacity bounds the "bounded" and
	// "recycling" queues (default 4096). PQCapacity is the "heap"
	// capacity and the priority range of "linear"/"tree" (default 1024).
	SetCapacity   int
	QueueCapacity int
	PQCapacity    int

	// IdleTimeout drops connections silent for this long (default 2m).
	IdleTimeout time.Duration

	// SpinBudget is the number of empty polls a shard goroutine makes on
	// its mailbox before parking: 0 (default) selects
	// mailbox.DefaultSpinBudget, a negative value disables spinning (the
	// shard parks on the first empty poll — the pre-mailbox channel
	// behavior, useful to isolate the spin phase in experiments).
	SpinBudget int

	// clock overrides the engine's time source (tests only: the
	// amortized-clock test injects a fake clock here). Nil means
	// time.Now.
	clock func() time.Time
}

func (o Options) withDefaults() Options {
	def := func(s *string, v string) {
		if *s == "" {
			*s = v
		}
	}
	defInt := func(n *int, v int) {
		if *n <= 0 {
			*n = v
		}
	}
	defInt(&o.Shards, runtime.GOMAXPROCS(0))
	defInt(&o.MaxShards, 2*o.Shards)
	if o.MaxShards < o.Shards {
		o.MaxShards = o.Shards
	}
	def(&o.SnapshotDir, ".")
	def(&o.Set, "striped")
	def(&o.Map, "striped")
	def(&o.Queue, "unbounded")
	def(&o.Stack, "treiber")
	def(&o.PQueue, "skip")
	def(&o.Counter, "combining")
	def(&o.MetricsCounter, "cas")
	def(&o.ReadBypass, "on")
	def(&o.Txn, "tl2")
	def(&o.CM, "aggressive")
	defInt(&o.SetCapacity, 1024)
	defInt(&o.QueueCapacity, 4096)
	defInt(&o.PQCapacity, 1024)
	// The hash-table constructors require power-of-two capacities ≥ 2.
	o.SetCapacity = nextPow2(max(2, o.SetCapacity))
	if o.IdleTimeout <= 0 {
		o.IdleTimeout = 2 * time.Minute
	}
	if o.clock == nil {
		o.clock = time.Now
	}
	return o
}

// errFull reports a bounded structure at capacity.
var errFull = errors.New("full")

// pool is the book's §10.1 abstract object behind the queue, stack and
// priority-queue families: put adds an item (errFull when a bounded
// backend is at capacity, a range error for the ranged priority queues),
// get removes the item the family's discipline chooses — the oldest, the
// newest, the smallest.
type pool interface {
	put(v int64) error
	get() (int64, bool)
}

// counterBackend adapts the counter family. inc takes one ticket on
// behalf of shard id and answers its pre-increment value; read answers
// the number of INCs completed; set overwrites that count (RESTORE, under
// the full quiesce).
type counterBackend interface {
	inc(id core.ThreadID) int64
	read() int64
	set(v int64)
}

// genericQueue serves the queue.Queue implementations that never refuse an
// enqueue.
type genericQueue struct{ q queue.Queue[int64] }

func (g genericQueue) put(v int64) error  { g.q.Enq(v); return nil }
func (g genericQueue) get() (int64, bool) { return g.q.Deq() }

// boundedQueue guards the blocking two-lock bounded queue with a size
// check so a full queue answers FULL instead of stalling its shard. The
// check races with concurrent shards, so an enqueue squeezing past it may
// still block briefly until a dequeue; that is the book's Fig. 10.3
// semantics, bounded here to the race window.
type boundedQueue struct{ q *queue.BoundedQueue[int64] }

func (b boundedQueue) put(v int64) error {
	if b.q.Size() >= b.q.Capacity() {
		return errFull
	}
	b.q.Enq(v)
	return nil
}

// get uses TryDeq: the blocking Deq would park the shard goroutine on an
// empty queue, stalling every command routed to that shard.
func (b boundedQueue) get() (int64, bool) { return b.q.TryDeq() }

// recyclingQueue adapts the node-recycling queue, whose Enq refuses when
// the node pool is exhausted.
type recyclingQueue struct{ q *queue.RecyclingQueue }

func (r recyclingQueue) put(v int64) error {
	if !r.q.Enq(v) {
		return errFull
	}
	return nil
}
func (r recyclingQueue) get() (int64, bool) { return r.q.Deq() }

// genericStack serves any stack.Stack.
type genericStack struct{ s stack.Stack[int64] }

func (g genericStack) put(v int64) error  { g.s.Push(v); return nil }
func (g genericStack) get() (int64, bool) { return g.s.Pop() }

// rangedPQ serves the bounded pools (SimpleLinear, SimpleTree), which
// panic outside their priority range; the adapter turns that into an error
// reply.
type rangedPQ struct {
	q   pqueue.PQueue
	rng int64
}

func (r rangedPQ) put(p int64) error {
	if p < 0 || p >= r.rng {
		return fmt.Errorf("priority %d outside [0,%d)", p, r.rng)
	}
	r.q.Add(int(p))
	return nil
}
func (r rangedPQ) get() (int64, bool) {
	v, ok := r.q.RemoveMin()
	return int64(v), ok
}

// cappedPQ serves the fine-grained heap, which panics past its capacity;
// a conservative item count turns overflow into FULL. The count may
// transiently overestimate (put reserves before inserting), never
// underestimate, so the heap cannot overflow.
type cappedPQ struct {
	q    *pqueue.FineGrainedHeap
	cap  int64
	size atomic.Int64
}

func (c *cappedPQ) put(p int64) error {
	if p < sentinelGuardMin || p > sentinelGuardMax {
		return fmt.Errorf("priority %d out of range", p)
	}
	if c.size.Add(1) > c.cap {
		c.size.Add(-1)
		return errFull
	}
	c.q.Add(int(p))
	return nil
}
func (c *cappedPQ) get() (int64, bool) {
	v, ok := c.q.RemoveMin()
	if ok {
		c.size.Add(-1)
	}
	return int64(v), ok
}

// openPQ serves the unbounded linearizable/quiescent queues.
type openPQ struct{ q pqueue.PQueue }

func (o openPQ) put(p int64) error {
	if p < sentinelGuardMin || p > sentinelGuardMax {
		return fmt.Errorf("priority %d out of range", p)
	}
	o.q.Add(int(p))
	return nil
}
func (o openPQ) get() (int64, bool) {
	v, ok := o.q.RemoveMin()
	return int64(v), ok
}

// ticketCounter serves the counting.Counter implementations, which hand
// out tickets but can be neither read nor set: the adapter keeps the
// high-water mark of completed INCs for READ, and the offset that
// re-homes the ticket space after a restore.
type ticketCounter struct {
	c    counting.Counter
	incs atomic.Int64 // completed INCs: highest ticket + 1
	base atomic.Int64 // INC answers base+ticket; zero until a restore
}

func (t *ticketCounter) inc(id core.ThreadID) int64 {
	ticket := t.c.GetAndIncrement(id)
	for {
		cur := t.incs.Load()
		if ticket+1 <= cur || t.incs.CompareAndSwap(cur, ticket+1) {
			break
		}
	}
	return t.base.Load() + ticket
}
func (t *ticketCounter) read() int64 { return t.base.Load() + t.incs.Load() }
func (t *ticketCounter) set(v int64) { t.base.Store(v - t.incs.Load()) }

// ksCounter serves INC/READ from the transactional keyspace's counter
// tvar, so they can be staged in a MULTI buffer and still agree with the
// fast path.
type ksCounter struct{ ks txn.Keyspace }

func (k ksCounter) inc(core.ThreadID) int64 { return k.ks.Inc() }
func (k ksCounter) read() int64             { return k.ks.Counter() }
func (k ksCounter) set(v int64)             { k.ks.SetCounter(v) }

// The list- and skiplist-based structures reserve math.MinInt64 and
// math.MaxInt64 as ±∞ sentinels, so the protocol rejects the two extreme
// keys rather than panic.
const (
	sentinelGuardMin = list.KeyMin + 1
	sentinelGuardMax = list.KeyMax - 1
)

// rangeSet and rangeMap are what the keyed registry rows build: the
// family's operations plus the quiesced enumeration that the snapshot
// cut, RESTORE's clear and RESHARD's split walk.
type rangeSet interface {
	list.Set
	Range(f func(x int) bool)
}

type rangeMap interface {
	strmap.Map
	Range(f func(key string, val int64) bool)
}

// row is one -set or -map registry row: a constructor plus the capability
// that gates the read bypass. readBypass asserts that
// Contains (Get) on the built structure is safe to call from any goroutine
// concurrently with the owning shard's writes — true for the lock-free
// sets, whose reads are CAS-free pointer chases (epoch-pinned where the
// structure recycles nodes), and the epoch map; false for every
// lock-based table, where a foreign reader would race the resize/quiesce
// protocols. With -txn on the engine replaces the resolved map row with
// one whose make returns the shared keyspace.
type row[T any] struct {
	make       func(o Options) T
	readBypass bool
}

// Backend constructor tables. Each entry builds a fresh instance from the
// (defaulted) options.
var (
	setBackends = map[string]row[rangeSet]{
		"coarse":    {make: func(o Options) rangeSet { return hashset.NewCoarseHashSet(o.SetCapacity) }},
		"striped":   {make: func(o Options) rangeSet { return hashset.NewStripedHashSet(o.SetCapacity) }},
		"refinable": {make: func(o Options) rangeSet { return hashset.NewRefinableHashSet(o.SetCapacity) }},
		"lockfree":  {make: func(o Options) rangeSet { return hashset.NewLockFreeHashSet() }, readBypass: true},
		"cuckoo":    {make: func(o Options) rangeSet { return hashset.NewStripedCuckooHashSet(o.SetCapacity) }},
		// Epoch-recycled ordered sets: allocation-free once warm (see
		// internal/epoch). Ordered-set semantics instead of hashing.
		"list-epoch": {make: func(o Options) rangeSet { return list.NewEpochList() }, readBypass: true},
		"skip-epoch": {make: func(o Options) rangeSet { return skiplist.NewEpochSkipList() }, readBypass: true},
	}
	// The map family serves HSET/HGET/HDEL: per-shard string-keyed
	// dictionaries with open chaining (internal/strmap), mirroring the
	// set registry's synchronization spectrum.
	mapBackends = map[string]row[rangeMap]{
		"coarse":       {make: func(o Options) rangeMap { return strmap.NewCoarseMap(o.SetCapacity) }},
		"striped":      {make: func(o Options) rangeMap { return strmap.NewStripedMap(o.SetCapacity) }},
		"refinable":    {make: func(o Options) rangeMap { return strmap.NewRefinableMap(o.SetCapacity) }},
		"cuckoo-chain": {make: func(o Options) rangeMap { return strmap.NewCuckooChainMap(o.SetCapacity) }},
		// RCU-style epoch-published table: mutex writers, lock-free
		// epoch-pinned readers — the map family's bypass-capable member.
		"epoch": {make: func(o Options) rangeMap { return strmap.NewEpochMap(o.SetCapacity) }, readBypass: true},
	}
	queueBackends = map[string]func(o Options) pool{
		"bounded":   func(o Options) pool { return boundedQueue{queue.NewBoundedQueue[int64](o.QueueCapacity)} },
		"unbounded": func(o Options) pool { return genericQueue{queue.NewUnboundedQueue[int64]()} },
		"lockfree":  func(o Options) pool { return genericQueue{queue.NewLockFreeQueue[int64]()} },
		"recycling": func(o Options) pool { return recyclingQueue{queue.NewRecyclingQueue(o.QueueCapacity)} },
		// Michael–Scott with epoch-based node recycling: unbounded like
		// "lockfree" but allocation-free once warm.
		"lockfree-epoch": func(o Options) pool { return genericQueue{queue.NewEpochQueue[int64]()} },
	}
	stackBackends = map[string]func(o Options) pool{
		"locked":      func(o Options) pool { return genericStack{stack.NewLockedStack[int64]()} },
		"treiber":     func(o Options) pool { return genericStack{stack.NewLockFreeStack[int64]()} },
		"elimination": func(o Options) pool { return genericStack{stack.NewEliminationBackoffStack[int64]()} },
	}
	pqBackends = map[string]func(o Options) pool{
		"locked": func(o Options) pool { return openPQ{pqueue.NewLockedHeap()} },
		"skip":   func(o Options) pool { return openPQ{pqueue.NewSkipQueue()} },
		"heap": func(o Options) pool {
			c := &cappedPQ{q: pqueue.NewFineGrainedHeap(o.PQCapacity)}
			c.cap = int64(o.PQCapacity)
			return c
		},
		"linear": func(o Options) pool {
			return rangedPQ{pqueue.NewSimpleLinear(o.PQCapacity), int64(o.PQCapacity)}
		},
		"tree": func(o Options) pool {
			return rangedPQ{pqueue.NewSimpleTree(nextPow2(o.PQCapacity)), int64(nextPow2(o.PQCapacity))}
		},
	}
	// Counter backends size their width to the shard count: the shards
	// are exactly the threads that touch them.
	counterBackends = map[string]func(o Options) counting.Counter{
		"cas":       func(o Options) counting.Counter { return &counting.CASCounter{} },
		"lock":      func(o Options) counting.Counter { return &counting.LockCounter{} },
		"combining": func(o Options) counting.Counter { return counting.NewCombiningTree(counterWidth(o)) },
		"diffracting": func(o Options) counting.Counter {
			return counting.NewNetworkCounter(counting.NewDiffractingTree(counterWidth(o)))
		},
		"network": func(o Options) counting.Counter {
			return counting.NewNetworkCounter(counting.NewBitonic(counterWidth(o)))
		},
	}
)

// pools holds one pool per pool family, indexed by family (the keyed
// families' slots stay nil).
type pools [famPQ + 1]pool

// newPools builds the three pools from their named backends: at boot, and
// again as the off-line scratch instances RESTORE validates an image into.
func newPools(o Options) (ps pools, err error) {
	names := [...]string{famQueue: o.Queue, famStack: o.Stack, famPQ: o.PQueue}
	tables := [...]map[string]func(Options) pool{famQueue: queueBackends, famStack: stackBackends, famPQ: pqBackends}
	for f := famQueue; f <= famPQ; f++ {
		mk, err := lookup(f.String(), names[f], tables[f])
		if err != nil {
			return ps, err
		}
		ps[f] = mk(o)
	}
	return ps, nil
}

// counterWidth sizes combining trees and counting networks: a power of
// two covering every shard the engine may ever run (the structures
// require width ≥ 2). MaxShards, not Shards — a live reshard doubles
// the shard count up to that bound, and the new shards' IDs must be
// valid lanes in the width-bounded structures built at boot.
func counterWidth(o Options) int {
	w := o.MaxShards
	if w < o.Shards {
		w = o.Shards
	}
	if w < 2 {
		w = 2
	}
	return nextPow2(w)
}

// nextPow2 rounds n up to a power of two (n ≥ 1).
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// SetBackends lists the valid -set names.
func SetBackends() []string { return sortedKeys(setBackends) }

// MapBackends lists the valid -map names.
func MapBackends() []string { return sortedKeys(mapBackends) }

// BypassSetBackends lists the -set names whose reads may take the
// wait-free bypass (readBypass capability), for tests and docs.
func BypassSetBackends() []string { return bypassNames(setBackends) }

// BypassMapBackends lists the -map names whose reads may take the
// wait-free bypass.
func BypassMapBackends() []string { return bypassNames(mapBackends) }

func bypassNames[T any](table map[string]row[T]) []string {
	var names []string
	for _, name := range sortedKeys(table) {
		if table[name].readBypass {
			names = append(names, name)
		}
	}
	return names
}

// QueueBackends lists the valid -queue names.
func QueueBackends() []string { return sortedKeys(queueBackends) }

// StackBackends lists the valid -stack names.
func StackBackends() []string { return sortedKeys(stackBackends) }

// PQueueBackends lists the valid -pqueue names.
func PQueueBackends() []string { return sortedKeys(pqBackends) }

// CounterBackends lists the valid -counter and -metrics-counter names.
func CounterBackends() []string { return sortedKeys(counterBackends) }

// TxnBackends lists the valid -txn names: the internal/txn engines plus
// "off" (map and counter families served by the -map/-counter backends,
// transaction verbs answer ERR).
func TxnBackends() []string {
	return append([]string{"off"}, txn.Engines()...)
}

// CMBackends lists the valid -cm names.
func CMBackends() []string { return txn.Managers() }

// newKeyspace resolves the -txn/-cm selection: a nil keyspace means
// transactions are off. The contention-manager name is validated even
// when transactions are off, so a bad -cm never boots.
func newKeyspace(o Options) (txn.Keyspace, error) {
	if err := txn.CheckManager(o.CM); err != nil {
		return nil, fmt.Errorf("server: unknown cm backend %q (have %s)",
			o.CM, strings.Join(CMBackends(), ", "))
	}
	if o.Txn == "off" {
		return nil, nil
	}
	ks, err := txn.New(o.Txn, o.CM)
	if err != nil {
		return nil, fmt.Errorf("server: unknown txn backend %q (have %s)",
			o.Txn, strings.Join(TxnBackends(), ", "))
	}
	return ks, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// lookup resolves one backend name against its table.
func lookup[V any](family, name string, table map[string]V) (V, error) {
	v, ok := table[name]
	if !ok {
		var zero V
		return zero, fmt.Errorf("server: unknown %s backend %q (have %s)",
			family, name, strings.Join(sortedKeys(table), ", "))
	}
	return v, nil
}
