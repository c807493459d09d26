package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"time"

	"amp/internal/core"
	"amp/internal/counting"
	"amp/internal/hashset"
	"amp/internal/list"
	"amp/internal/mailbox"
	"amp/internal/metrics"
	"amp/internal/pqueue"
	"amp/internal/queue"
	"amp/internal/server"
	"amp/internal/snapshot"
	"amp/internal/stack"
	"amp/internal/txn"
)

// Replays run the workload's own command stream through one layer's
// public functions, in this process, single-threaded, after the load has
// stopped. They measure a layer's cost in isolation — no sockets, no
// shards, one structure where the server has one per shard — so they are
// for comparing two commits, not for adding up to cpu_us_per_op.
const (
	replayBatch = 1024    // calls per span
	replayMax   = 1 << 20 // command lines taken from connection 0's stream
)

// serverSetCapacity is internal/server's default per-shard table size; the
// benchmark passes no -set-cap, so the replays build with the same.
const serverSetCapacity = 1024

// layers collects per-layer values, and for each metric that could not be
// measured the reason why.
type layers struct {
	vals   map[string]metric
	absent map[string]string
}

func newLayers() *layers {
	return &layers{vals: map[string]metric{}, absent: map[string]string{}}
}

func (l *layers) set(name string, v float64, unit string) {
	l.vals[name] = metric{Value: v, Unit: unit}
}

func (l *layers) miss(reason string, names ...string) {
	for _, n := range names {
		l.absent[n] = reason
	}
}

// Sinks keep replayed calls' results alive. They are typed: boxing an int64
// into an interface would add an allocation to the call being timed.
var (
	sinkInt  int64
	sinkBool bool
	sinkAny  any // pointer-shaped or slice results only
)

type replayer struct {
	tr     *tracer
	parent int
	now    func() int64
	sp     *spec
	lines  [][]byte
	cmds   []server.Command
}

func newReplayer(tr *tracer, parent int, now func() int64, sp *spec, s *stream) (*replayer, error) {
	r := &replayer{tr: tr, parent: parent, now: now, sp: sp}
	rest := s.cmds
	for len(rest) > 0 && len(r.lines) < replayMax {
		i := bytes.IndexByte(rest, '\n')
		r.lines = append(r.lines, rest[:i])
		rest = rest[i+1:]
	}
	r.cmds = make([]server.Command, len(r.lines))
	for i, line := range r.lines {
		c, err := server.ParseCommand(line)
		if err != nil {
			return nil, fmt.Errorf("replay: generated line %q does not parse: %w", line, err)
		}
		r.cmds[i] = c
	}
	return r, nil
}

// timed calls fn(i) for i in [0,n), one span per batch of replayBatch
// calls under a "replay.<layer>" span, and returns the median nanoseconds
// per call over the batches and the allocations per call.
func (r *replayer) timed(layer string, n int, fn func(i int)) (nsPerCall, allocsPerCall float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := r.now()
	top := r.tr.add(r.parent, "replay."+layer, "", start, start)
	var per []float64
	for lo := 0; lo < n; lo += replayBatch {
		hi := min(lo+replayBatch, n)
		t0 := r.now()
		for i := lo; i < hi; i++ {
			fn(i)
		}
		t1 := r.now()
		r.tr.add(top, "replay."+layer+".batch", "", t0, t1)
		per = append(per, float64(t1-t0)/float64(hi-lo))
	}
	r.tr.spans[top-1].End = r.now()
	runtime.ReadMemStats(&after)
	return median(per), float64(after.Mallocs-before.Mallocs) / float64(max(n, 1))
}

// pickOps returns the replayed commands of one family.
func (r *replayer) pickOps(f family) []server.Command {
	var out []server.Command
	for _, c := range r.cmds {
		if v, ok := verbOf[c.Op]; ok && verbTable[v].fam == f {
			out = append(out, c)
		}
	}
	return out
}

var verbOf = map[server.Op]verb{
	server.OpSet: vSET, server.OpGet: vGET, server.OpDel: vDEL,
	server.OpHSet: vHSET, server.OpHGet: vHGET, server.OpHDel: vHDEL, server.OpHIncr: vHINCR,
	server.OpEnq: vENQ, server.OpDeq: vDEQ, server.OpPush: vPUSH, server.OpPop: vPOP,
	server.OpInc: vINC, server.OpRead: vREAD, server.OpPQAdd: vPQADD, server.OpPQMin: vPQMIN,
	server.OpMulti: vMULTI, server.OpExec: vEXEC,
}

func (r *replayer) parse(l *layers) {
	ns, allocs := r.timed("server.parse", len(r.lines), func(i int) {
		c, _ := server.ParseCommand(r.lines[i])
		sinkInt = int64(c.Op)
	})
	l.set("server.parse_ns_per_cmd", ns, "ns")
	l.set("server.parse_allocs_per_cmd", allocs, "count")
}

// handoff times what one batch pays to cross a shard mailbox: a quiet
// publish and the combiner's take.
func (r *replayer) handoff(l *layers) float64 {
	type batch struct{ n int }
	mb := mailbox.New[*batch](128, 0)
	b := &batch{}
	ns, _ := r.timed("mailbox", replayMax, func(int) {
		mb.PutQuiet(b)
		sinkAny, _ = mb.TryGet()
	})
	mb.Close()
	l.set("mailbox.handoff_ns", ns, "ns")
	return ns
}

func (r *replayer) observe(l *layers, st *serverStats) {
	if name := st.backend["metrics-counter"]; name != "cas" {
		l.miss(fmt.Sprintf("STATS names metrics-counter=%s; the replay knows only the cas factory", name), "metrics.observe_ns")
		return
	}
	op := metrics.NewRegistry(nil, "replay").Op("replay")
	ns, _ := r.timed("metrics", replayMax, func(int) { op.Observe(time.Microsecond, 0) })
	l.set("metrics.observe_ns", ns, "ns")
}

var setMakers = map[string]func() list.Set{
	"coarse":    func() list.Set { return hashset.NewCoarseHashSet(serverSetCapacity) },
	"striped":   func() list.Set { return hashset.NewStripedHashSet(serverSetCapacity) },
	"refinable": func() list.Set { return hashset.NewRefinableHashSet(serverSetCapacity) },
	"lockfree":  func() list.Set { return hashset.NewLockFreeHashSet() },
	"cuckoo":    func() list.Set { return hashset.NewStripedCuckooHashSet(serverSetCapacity) },
}

func (r *replayer) hashset(l *layers, st *serverStats) {
	names := []string{"hashset.ns_per_op", "hashset.allocs_per_op"}
	mk, ok := setMakers[st.backend["set"]]
	if !ok {
		l.miss(fmt.Sprintf("STATS names set=%s, which is not an internal/hashset structure this benchmark knows", st.backend["set"]), names...)
		return
	}
	set := mk()
	for k := 0; k < r.sp.preSet; k++ {
		set.Add(k)
	}
	ops := r.pickOps(famSet)
	ns, allocs := r.timed("hashset", len(ops), func(i int) {
		switch c := ops[i]; c.Op {
		case server.OpSet:
			sinkBool = set.Add(int(c.Arg))
		case server.OpGet:
			sinkBool = set.Contains(int(c.Arg))
		default:
			sinkBool = set.Remove(int(c.Arg))
		}
	})
	l.set(names[0], ns, "ns")
	l.set(names[1], allocs, "count")
}

// keyspace replays the map family, and the transfers as whole Exec calls,
// on the engine STATS names.
func (r *replayer) keyspace(l *layers, st *serverStats) {
	single := []string{"txn.ns_per_op", "txn.allocs_per_op"}
	engine, cm := st.txn["engine"], st.txn["cm"]
	ks, err := txn.New(engine, cm)
	if engine == "" || engine == "off" || err != nil {
		l.miss(fmt.Sprintf("STATS names txn engine=%q (%v): the map family is not served by internal/txn", engine, err), single...)
		if r.sp.txn {
			l.miss("no txn engine", "txn.exec_ns_per_txn")
		}
		return
	}
	var key []byte
	for k := 0; k < r.sp.preMap; k++ {
		key = appendMapKey(key[:0], int64(k))
		ks.Set(string(key), 0)
	}
	ops := r.pickOps(famMap)
	if r.sp.txn {
		// Staged HINCRs are executed by Exec below, not one by one: only
		// the canaries' map commands are single operations here.
		ops = ops[:0]
		inTxn := false
		for _, c := range r.cmds {
			switch {
			case c.Op == server.OpMulti:
				inTxn = true
			case c.Op == server.OpExec:
				inTxn = false
			case !inTxn && verbTable[verbOf[c.Op]].fam == famMap:
				ops = append(ops, c)
			}
		}
	}
	ns, allocs := r.timed("txn", len(ops), func(i int) {
		switch c := ops[i]; c.Op {
		case server.OpHSet:
			sinkBool = ks.Set(c.Key, c.Arg)
		case server.OpHGet:
			sinkInt, _ = ks.Get(c.Key)
		case server.OpHDel:
			sinkBool = ks.Del(c.Key)
		default:
			sinkInt = ks.Incr(c.Key, c.Arg)
		}
	})
	l.set(single[0], ns, "ns")
	l.set(single[1], allocs, "count")

	if !r.sp.txn {
		return
	}
	var txns [][]txn.Op
	var cur []txn.Op
	for _, c := range r.cmds {
		switch c.Op {
		case server.OpMulti:
			cur = make([]txn.Op, 0, 2)
		case server.OpHIncr:
			if cur != nil {
				cur = append(cur, txn.Op{Kind: txn.Incr, Key: c.Key, Val: c.Arg})
			}
		case server.OpExec:
			txns, cur = append(txns, cur), nil
		}
	}
	ns, _ = r.timed("txn.exec", len(txns), func(i int) { sinkAny = ks.Exec(txns[i]) })
	l.set("txn.exec_ns_per_txn", ns, "ns")
}

// pool adapts one unkeyed structure to the two things a replay does to it.
type pool struct {
	put  func(int64)
	take func()
}

func queuePool(q queue.Queue[int64]) pool {
	return pool{q.Enq, func() { sinkInt, _ = q.Deq() }}
}

func stackPool(s stack.Stack[int64]) pool {
	return pool{s.Push, func() { sinkInt, _ = s.Pop() }}
}

func pqPool(q pqueue.PQueue) pool {
	return pool{func(v int64) { q.Add(int(v)) }, func() { v, _ := q.RemoveMin(); sinkInt = int64(v) }}
}

// poolMakers lists, per family, the unbounded structures of the server's
// registry under the names STATS prints. A bounded one answers FULL where
// these cannot, so it is reported absent rather than replayed differently.
var poolMakers = []struct {
	layer  string // also the key of the STATS backend line
	fam    family
	makers map[string]func() pool
}{
	{"queue", famQueue, map[string]func() pool{
		"unbounded":      func() pool { return queuePool(queue.NewUnboundedQueue[int64]()) },
		"lockfree":       func() pool { return queuePool(queue.NewLockFreeQueue[int64]()) },
		"lockfree-epoch": func() pool { return queuePool(queue.NewEpochQueue[int64]()) },
	}},
	{"stack", famStack, map[string]func() pool{
		"locked":      func() pool { return stackPool(stack.NewLockedStack[int64]()) },
		"treiber":     func() pool { return stackPool(stack.NewLockFreeStack[int64]()) },
		"elimination": func() pool { return stackPool(stack.NewEliminationBackoffStack[int64]()) },
	}},
	{"pqueue", famPQ, map[string]func() pool{
		"locked": func() pool { return pqPool(pqueue.NewLockedHeap()) },
		"skip":   func() pool { return pqPool(pqueue.NewSkipQueue()) },
	}},
}

// pools replays the unkeyed families; only rtt-mixed sends them.
func (r *replayer) pools(l *layers, st *serverStats) {
	for _, pm := range poolMakers {
		metric, backend := pm.layer+".ns_per_op", st.backend[pm.layer]
		mk, ok := pm.makers[backend]
		if !ok {
			l.miss(fmt.Sprintf("STATS names %s=%s, which is not an unbounded structure this replay knows", pm.layer, backend), metric)
			continue
		}
		p, ops := mk(), r.pickOps(pm.fam)
		for i := 0; i < r.sp.cushion; i++ {
			p.put(int64(i))
		}
		ns, _ := r.timed(pm.layer, len(ops), func(i int) {
			if ops[i].Op.HasArg() { // ENQ, PUSH, PQADD
				p.put(ops[i].Arg)
			} else {
				p.take()
			}
		})
		l.set(metric, ns, "ns")
	}

	if e := st.txn["engine"]; e != "" && e != "off" {
		l.miss(fmt.Sprintf("with txn engine=%s INC/READ are served by the txn keyspace, not by internal/counting", e), "counting.ns_per_op")
		return
	}
	counters := map[string]func() counting.Counter{
		"cas":       func() counting.Counter { return &counting.CASCounter{} },
		"lock":      func() counting.Counter { return &counting.LockCounter{} },
		"combining": func() counting.Counter { return counting.NewCombiningTree(8) }, // -max-shards 8
	}
	mk, ok := counters[st.backend["counter"]]
	if !ok {
		l.miss(fmt.Sprintf("STATS names counter=%s, unknown to the replay", st.backend["counter"]), "counting.ns_per_op")
		return
	}
	c, ops := mk(), r.pickOps(famCounter)
	ns, _ := r.timed("counting", len(ops), func(i int) {
		if ops[i].Op == server.OpInc { // READ is an atomic load in the server, not a counting call
			sinkInt = c.GetAndIncrement(core.ThreadID(0))
		}
	})
	l.set("counting.ns_per_op", ns, "ns")
}

// snapshotCodec times Encode and Decode of the synthesised state.
func (r *replayer) snapshotCodec(l *layers, st *snapshot.State) error {
	var enc, dec []float64
	for i := 0; i < 5; i++ {
		t0 := r.now()
		img := snapshot.Encode(st)
		t1 := r.now()
		got, err := snapshot.Decode(img)
		t2 := r.now()
		if err != nil || len(got.Map) != len(st.Map) {
			return fmt.Errorf("snapshot replay: decode of the synthesised state: %v", err)
		}
		r.tr.add(r.parent, "replay.snapshot.encode", "", t0, t1)
		r.tr.add(r.parent, "replay.snapshot.decode", "", t1, t2)
		enc, dec = append(enc, float64(t1-t0)/1e6), append(dec, float64(t2-t1)/1e6)
	}
	l.set("snapshot.encode_ms", median(enc), "ms")
	l.set("snapshot.decode_ms", median(dec), "ms")
	return nil
}

// synthState is the snapshot a -restore workload boots from: the same
// preload the other workloads send as commands.
func synthState(sp *spec) *snapshot.State {
	st := &snapshot.State{Shards: 4}
	for k := 0; k < sp.preSet; k++ {
		st.Set = append(st.Set, int64(k))
	}
	var key []byte
	for k := 0; k < sp.preMap; k++ {
		key = appendMapKey(key[:0], int64(k))
		st.Map = append(st.Map, snapshot.Entry{Key: string(key), Val: int64(k)})
	}
	sort.Slice(st.Map, func(i, j int) bool { return st.Map[i].Key < st.Map[j].Key })
	return st
}
