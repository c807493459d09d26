package main

import (
	"math/rand"
	"strconv"
	"time"
)

// verb enumerates the protocol commands the workloads send.
type verb uint8

const (
	vSET verb = iota
	vGET
	vDEL
	vHSET
	vHGET
	vHDEL
	vHINCR
	vENQ
	vDEQ
	vPUSH
	vPOP
	vINC
	vREAD
	vPQADD
	vPQMIN
	vMULTI
	vEXEC
	numVerbs
)

// Reply expectations, one code per command line, checked by the reply's
// first byte (second byte too where 'E' is ambiguous between EMPTY and
// ERR). expExact compares the whole integer with the next exact value.
const (
	expInt    byte = iota // integer
	expOK                 // OK
	expOKFull             // OK | FULL (a bounded backend may refuse)
	expVal                // integer | EMPTY
	expQueued             // +QUEUED
	expExec               // *N followed by N integer lines
	expExact              // integer equal to the stream's next exact value
)

type family uint8

const (
	famSet family = iota
	famMap
	famQueue
	famStack
	famCounter
	famPQ
	famTxn
)

var verbTable = [numVerbs]struct {
	name string
	fam  family
	exp  byte
}{
	vSET:   {"SET", famSet, expInt},
	vGET:   {"GET", famSet, expInt},
	vDEL:   {"DEL", famSet, expInt},
	vHSET:  {"HSET", famMap, expInt},
	vHGET:  {"HGET", famMap, expVal},
	vHDEL:  {"HDEL", famMap, expInt},
	vHINCR: {"HINCR", famMap, expInt},
	vENQ:   {"ENQ", famQueue, expOKFull},
	vDEQ:   {"DEQ", famQueue, expVal},
	vPUSH:  {"PUSH", famStack, expOK},
	vPOP:   {"POP", famStack, expVal},
	vINC:   {"INC", famCounter, expInt},
	vREAD:  {"READ", famCounter, expInt},
	vPQADD: {"PQADD", famPQ, expOKFull},
	vPQMIN: {"PQMIN", famPQ, expVal},
	vMULTI: {"MULTI", famTxn, expOK},
	vEXEC:  {"EXEC", famTxn, expExec},
}

// mixEntry is one verb's share of a workload's traffic, in percent.
type mixEntry struct {
	v   verb
	pct int
}

// spec describes one workload. Names are fixed: later issues cite them.
type spec struct {
	name string
	why  string

	depth int        // command lines per window (txn: transactions per window × 4)
	cycle []verb     // fixed verb rotation (rtt-mixed), or
	mix   []mixEntry // weighted verb draw
	txn   bool       // every slot is MULTI / HINCR a -d / HINCR b +d / EXEC

	keys    int     // key-space size per keyed family
	zipf    float64 // Zipf exponent over keys; 0 = uniform
	preSet  int     // set keys [0,preSet) preloaded
	preMap  int     // map keys [0,preMap) preloaded
	cushion int     // items preloaded into queue, stack and pqueue

	restore   bool          // preload arrives as a -restore snapshot, not as commands
	saveEvery time.Duration // control connection issues SAVE this often

	// rateCeil sizes the pre-generated stream, in command lines per
	// second over all connections: well above what the dev host reaches,
	// so the stream does not wrap (client.stream_wraps reports if it did).
	rateCeil int
}

var pipeWriteMix = []mixEntry{
	{vHSET, 35}, {vHINCR, 10}, {vHDEL, 10}, {vSET, 20}, {vDEL, 15}, {vHGET, 5}, {vGET, 5},
}

var specs = []spec{
	{
		name:  "rtt-mixed",
		why:   "depth-1 round trips over all six families: connection-loop syscalls and mailbox handoff/park do the work, structures almost none; a storage optimisation predicts no change here",
		depth: 1,
		cycle: []verb{vSET, vGET, vDEL, vENQ, vDEQ, vPUSH, vPOP, vINC, vREAD, vPQADD, vPQMIN},
		keys:  65536, preSet: 65536, cushion: 1024,
		rateCeil: 150_000,
	},
	{
		name:  "pipe-write",
		why:   "depth-32 bulk ingest, 90% writes, uniform keys, working set far beyond CPU cache: txn+stm, hashset, allocation/GC and per-batch mailbox handoff dominate",
		depth: 32,
		mix:   pipeWriteMix,
		keys:  500_000, preSet: 250_000, preMap: 250_000,
		rateCeil: 1_200_000,
	},
	{
		name:  "pipe-read-hot",
		why:   "depth-32, 95% reads, Zipf 1.1 over 16384 cache-resident keys: HGET on the wait-free bypass beside GET through the mailbox; parse and reply formatting dominate",
		depth: 32,
		mix:   []mixEntry{{vHGET, 60}, {vGET, 35}, {vHSET, 3}, {vSET, 1}, {vDEL, 1}},
		keys:  16384, zipf: 1.1, preSet: 16384, preMap: 16384,
		rateCeil: 1_500_000,
	},
	{
		name:  "txn-transfer",
		why:   "4 MULTI/HINCR/HINCR/EXEC transfers in flight per connection over 1024 Zipf accounts: stm commit/abort and txn.Exec do the work; balances must sum to 0",
		depth: 16,
		txn:   true,
		keys:  1024, zipf: 1.1, preMap: 1024,
		rateCeil: 1_000_000,
	},
	{
		name:  "save-restore",
		why:   "boot from a 200000-key-per-family snapshot, pipe-write mix at depth 16 with SAVE every 2s: restore time is setup_s, quiesce stalls sit in the tail, snapshot encode/decode",
		depth: 16,
		mix:   pipeWriteMix,
		keys:  200_000, preSet: 200_000, preMap: 200_000,
		restore: true, saveEvery: 2 * time.Second,
		rateCeil: 1_000_000,
	},
}

func findSpec(name string) *spec {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i]
		}
	}
	return nil
}

// Canaries: each connection owns a reserved key range no other traffic
// touches, so these replies are known exactly. A group is four
// consecutive command lines that leave its key absent again, which keeps
// the stream correct if it ever wraps.
const (
	canaryShare   = 0.01 // of command lines
	canaryGroup   = 4
	canaryKeys    = 256     // per connection and family
	canarySetBase = 1 << 40 // far above every workload's key space
)

// stream is one connection's pre-generated traffic: the only bytes the
// server ever receives from it.
type stream struct {
	cmds   []byte   // every command line, concatenated
	winOff []uint32 // window i is cmds[winOff[i]:winOff[i+1]]
	exp    []byte   // one expectation code per command line
	exact  []int64  // values for expExact lines, in order
	depth  int      // command lines per window
}

func (s *stream) windows() int { return len(s.winOff) - 1 }

// gen draws one connection's commands.
type gen struct {
	sp   *spec
	conn int
	rng  *rand.Rand
	zipf *rand.Zipf
	pick [100]verb // mix expanded to percent slots
	step int       // position in the cycle
	can  int       // canary groups emitted

	s *stream
}

func newGen(sp *spec, seed int64, conn int) *gen {
	// One independent source per (seed, connection); the multiplier only
	// spreads nearby seeds apart.
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(conn)*7919 + 1))
	g := &gen{sp: sp, conn: conn, rng: rng, s: &stream{depth: sp.depth}}
	if sp.zipf > 0 {
		g.zipf = rand.NewZipf(rng, sp.zipf, 1, uint64(sp.keys-1))
	}
	i := 0
	for _, m := range sp.mix {
		for n := 0; n < m.pct; n++ {
			g.pick[i] = m.v
			i++
		}
	}
	return g
}

func (g *gen) key() int64 {
	if g.zipf != nil {
		return int64(g.zipf.Uint64())
	}
	return int64(g.rng.Intn(g.sp.keys))
}

func appendMapKey(b []byte, k int64) []byte {
	return strconv.AppendInt(append(b, 'k'), k, 10)
}

// emit appends one command line and its expectation.
func (g *gen) emit(v verb, key int64, val int64, exp byte) {
	s := g.s
	if len(s.exp)%s.depth == 0 {
		s.winOff = append(s.winOff, uint32(len(s.cmds)))
	}
	b := append(s.cmds, verbTable[v].name...)
	switch v {
	case vSET, vGET, vDEL, vENQ, vPUSH, vPQADD:
		b = strconv.AppendInt(append(b, ' '), key, 10)
	case vHGET, vHDEL:
		b = appendMapKey(append(b, ' '), key)
	case vHSET, vHINCR:
		b = appendMapKey(append(b, ' '), key)
		b = strconv.AppendInt(append(b, ' '), val, 10)
	}
	s.cmds = append(b, '\n')
	s.exp = append(s.exp, exp)
}

func (g *gen) emitExact(v verb, key, val, want int64) {
	g.emit(v, key, val, expExact)
	g.s.exact = append(g.s.exact, want)
}

// canary emits one self-contained group on this connection's reserved
// keys, alternating between the set and the map family.
func (g *gen) canary() {
	i := int64(g.can / 2 % canaryKeys)
	if g.can%2 == 0 {
		k := canarySetBase + int64(g.conn)<<20 + i
		g.emitExact(vSET, k, 0, 1)
		g.emitExact(vGET, k, 0, 1)
		g.emitExact(vDEL, k, 0, 1)
		g.emitExact(vGET, k, 0, 0)
	} else {
		// Map canary keys sit above the key space: "k<canarySetBase+…>".
		k := canarySetBase + int64(g.conn)<<20 + i
		v := int64(g.rng.Intn(1_000_000))
		d := int64(g.rng.Intn(100) + 1)
		g.emitExact(vHSET, k, v, 1)
		g.emitExact(vHGET, k, 0, v)
		g.emitExact(vHINCR, k, d, v+d)
		g.emitExact(vHDEL, k, 0, 1)
	}
	g.can++
}

// command emits one ordinary command line of the workload's mix.
func (g *gen) command() {
	var v verb
	if g.sp.cycle != nil {
		v = g.sp.cycle[g.step%len(g.sp.cycle)]
		g.step++
	} else {
		v = g.pick[g.rng.Intn(100)]
	}
	var key, val int64
	switch v {
	case vDEQ, vPOP, vINC, vREAD, vPQMIN:
	case vHSET:
		key, val = g.key(), int64(g.rng.Intn(1_000_000))
	case vHINCR:
		key, val = g.key(), int64(g.rng.Intn(100)+1)
	default:
		key = g.key()
	}
	g.emit(v, key, val, verbTable[v].exp)
}

// transfer emits one balanced transaction between two distinct accounts.
func (g *gen) transfer() {
	a, b := g.key(), g.key()
	for b == a {
		b = g.key()
	}
	d := int64(g.rng.Intn(100) + 1)
	g.emit(vMULTI, 0, 0, expOK)
	g.emit(vHINCR, a, -d, expQueued)
	g.emit(vHINCR, b, d, expQueued)
	g.emit(vEXEC, 0, 0, expExec)
}

// generate fills the stream with n windows. Every iteration emits four
// lines for a transaction workload and one otherwise, except that a
// canary group always takes four and starts only where it still fits;
// pCanary makes canary lines canaryShare of all lines either way.
func (g *gen) generate(n int) *stream {
	s := g.s
	total := n * g.sp.depth
	s.cmds = make([]byte, 0, total*16)
	s.exp = make([]byte, 0, total)
	s.winOff = make([]uint32, 0, n+1)
	pCanary := canaryShare / canaryGroup
	if g.sp.txn {
		pCanary = canaryShare
	}
	for len(s.exp) < total {
		switch {
		case total-len(s.exp) >= canaryGroup && g.rng.Float64() < pCanary:
			g.canary()
		case g.sp.txn:
			g.transfer()
		default:
			g.command()
		}
	}
	s.winOff = append(s.winOff, uint32(len(s.cmds)))
	return s
}
