// Package server implements ampserved, a sharded TCP front-end over the
// book's concurrent objects. Clients speak a line-oriented text protocol;
// each command family is routed to a concurrent structure from internal/
// chosen at startup through the backend registry (see backend.go), so the
// same server can run its sets striped, refinable, split-ordered or
// cuckoo, its queues two-lock or Michael–Scott, its counters combined or
// routed through a counting network.
//
// Protocol (one command per line, LF or CRLF terminated, ≤ MaxLineLen
// bytes; integer arguments are signed 64-bit decimals; string keys are
// single printable tokens — no spaces, tabs or control bytes):
//
//	SET k      add k to the set          → 1 (added) | 0 (already present)
//	GET k      membership of k           → 1 | 0
//	DEL k      remove k from the set     → 1 (removed) | 0 (absent)
//	HSET k v   map string key k to v     → 1 (new key) | 0 (overwrote)
//	HGET k     value at string key k     → v | EMPTY
//	HDEL k     remove string key k       → 1 (removed) | 0 (absent)
//	HINCR k v  add v to key k (0 start)  → new value
//	PUSH v     push v on the stack       → OK
//	POP        pop the stack             → v | EMPTY
//	ENQ v      enqueue v                 → OK | FULL
//	DEQ        dequeue                   → v | EMPTY
//	INC        take a counter ticket     → ticket value
//	READ       read the counter          → number of INCs completed
//	PQADD p    add priority p            → OK | FULL
//	PQMIN      remove the min priority   → p | EMPTY
//	STATS      per-op counters/latency   → multi-line body, then END
//	PING       liveness                  → PONG
//	QUIT       close the connection      → OK
//	MULTI      open a transaction        → OK, then +QUEUED per staged line
//	EXEC       commit the staged buffer  → *N, then N reply lines
//	DISCARD    drop the staged buffer    → OK
//	TXSTATS    transaction engine stats  → one info line
//	SAVE       snapshot to disk          → OK (synchronous write)
//	BGSAVE     snapshot in background    → OK (cut taken, write async)
//	RESTORE f  load snapshot file f      → OK (f is a bare filename,
//	           resolved under -snapshot-dir; paths are rejected)
//	RESHARD n  double the shards to n    → OK (n must be exactly 2× current)
//
// Any failure is reported as "ERR <reason>"; malformed commands keep the
// connection open, an oversized line closes it (framing is lost).
//
// Clients may pipeline: send any number of commands without waiting for
// replies. The server parses ahead of the data plane, executes batches
// of buffered commands, and answers with exactly one reply per command
// (STATS: one multi-line body) in the order the commands were sent.
// Commands on one connection take effect in the order they were sent;
// commands on different connections may interleave arbitrarily, each
// atomically (the structures are linearizable).
//
// Between MULTI and EXEC the transactional families (HSET/HGET/HDEL/
// HINCR, INC/READ — at most MaxTxnOps lines) are staged, not executed;
// each staged line answers "+QUEUED". EXEC commits the whole buffer as
// one atomic transaction — across keys and across shards — and answers
// "*N" followed by the N per-command replies in staging order. Any
// staging error (unknown or non-stageable command, nested MULTI, a full
// buffer) poisons the window: EXEC then answers ERR and discards the
// buffer. PING, STATS and TXSTATS execute immediately inside a window;
// QUIT discards it and closes. With -txn off the four verbs answer ERR.
//
// SAVE and BGSAVE write a consistent point-in-time snapshot of every
// family to -snapshot-dir (format: internal/snapshot); the cut is taken
// with every shard quiesced at a batch boundary and EXEC commits gated,
// so it contains exactly the commands answered before it and no torn
// state. SAVE writes before answering; BGSAVE answers after the cut and
// writes in the background. RESTORE replaces the entire logical state
// with the named snapshot image; the name must be a bare filename — it
// is resolved under -snapshot-dir, and anything containing a path
// separator or dot-dot answers ERR, so clients cannot read arbitrary
// server-side files (booting with -restore takes a full path; that one
// is the operator's). RESHARD doubles the shard count
// live — traffic keeps flowing while each shard splits — up to the
// -max-shards bound; only exact doubling is accepted. None of the four
// may be staged in a MULTI window.
//
// Adding a verb is one Op constant and one row of the ops table below:
// spelling, argument shape, family, metric row and transactional staging
// all live there, and the parser, the engine and the connection loop read
// them from it.
package server

import (
	"errors"
	"fmt"

	"amp/internal/strmap"
	"amp/internal/txn"
)

// Op enumerates the protocol commands.
type Op uint8

// The command set. OpInvalid is the zero value so an unset Command is
// never a valid operation.
const (
	OpInvalid Op = iota
	OpSet
	OpGet
	OpDel
	OpHSet
	OpHGet
	OpHDel
	OpHIncr
	OpPush
	OpPop
	OpEnq
	OpDeq
	OpInc
	OpRead
	OpPQAdd
	OpPQMin
	OpStats
	OpPing
	OpQuit
	OpMulti
	OpExec
	OpDiscard
	OpTxStats
	OpSave
	OpBGSave
	OpRestore
	OpReshard
	numOps
)

// MaxLineLen bounds a protocol line (command, argument, terminator). Long
// lines cannot be re-framed reliably, so the server drops the connection.
const MaxLineLen = 128

// ErrLineTooLong reports a line over MaxLineLen bytes.
var ErrLineTooLong = errors.New("line too long")

// argKind classifies a verb's argument shape.
type argKind uint8

const (
	argNone   argKind = iota // verb alone
	argInt                   // verb + signed 64-bit decimal
	argKey                   // verb + printable string token
	argKeyInt                // verb + string token + decimal
)

// family names the abstract object a verb addresses. The two keyed
// families come first so per-family engine state is a [2] array indexed by
// them; the three pools (§10.1) are contiguous for the same reason.
type family uint8

const (
	famSet family = iota
	famMap
	famQueue
	famStack
	famPQ
	famCounter
	famNone // control verbs: answered by the connection loop, never executed
)

var familyNames = [...]string{"set", "map", "queue", "stack", "pqueue", "counter", "none"}

func (f family) String() string { return familyNames[f] }

// opInfo is everything the server knows about one verb.
type opInfo struct {
	verb   string
	arg    argKind
	family family
	put    bool     // pool families: the put() half; the other verb is get()
	read   bool     // keyed point read: the read bypass candidates
	metric string   // metrics registry row; "" for the unmeasured control verbs
	stage  bool     // may be queued inside a MULTI window, as kind
	kind   txn.Kind // meaningful only with stage
}

// ops is the verb table, one row per Op: the single place a verb is
// declared.
var ops = [numOps]opInfo{
	OpInvalid: {verb: "INVALID", family: famNone},

	OpSet: {verb: "SET", arg: argInt, family: famSet, metric: "set.add"},
	OpGet: {verb: "GET", arg: argInt, family: famSet, metric: "set.contains", read: true},
	OpDel: {verb: "DEL", arg: argInt, family: famSet, metric: "set.remove"},

	OpHSet:  {verb: "HSET", arg: argKeyInt, family: famMap, metric: "map.set", stage: true, kind: txn.Set},
	OpHGet:  {verb: "HGET", arg: argKey, family: famMap, metric: "map.get", stage: true, kind: txn.Get, read: true},
	OpHDel:  {verb: "HDEL", arg: argKey, family: famMap, metric: "map.del", stage: true, kind: txn.Del},
	OpHIncr: {verb: "HINCR", arg: argKeyInt, family: famMap, metric: "map.incr", stage: true, kind: txn.Incr},

	OpPush:  {verb: "PUSH", arg: argInt, family: famStack, metric: "stack.push", put: true},
	OpPop:   {verb: "POP", family: famStack, metric: "stack.pop"},
	OpEnq:   {verb: "ENQ", arg: argInt, family: famQueue, metric: "queue.enq", put: true},
	OpDeq:   {verb: "DEQ", family: famQueue, metric: "queue.deq"},
	OpPQAdd: {verb: "PQADD", arg: argInt, family: famPQ, metric: "pqueue.add", put: true},
	OpPQMin: {verb: "PQMIN", family: famPQ, metric: "pqueue.min"},

	OpInc:  {verb: "INC", family: famCounter, metric: "counter.inc", stage: true, kind: txn.CtrInc},
	OpRead: {verb: "READ", family: famCounter, metric: "counter.read", stage: true, kind: txn.CtrRead},

	OpStats:   {verb: "STATS", family: famNone},
	OpPing:    {verb: "PING", family: famNone},
	OpQuit:    {verb: "QUIT", family: famNone},
	OpMulti:   {verb: "MULTI", family: famNone},
	OpExec:    {verb: "EXEC", family: famNone},
	OpDiscard: {verb: "DISCARD", family: famNone},
	OpTxStats: {verb: "TXSTATS", family: famNone},
	OpSave:    {verb: "SAVE", family: famNone},
	OpBGSave:  {verb: "BGSAVE", family: famNone},
	OpRestore: {verb: "RESTORE", arg: argKey, family: famNone}, // the key token is a filename under -snapshot-dir
	OpReshard: {verb: "RESHARD", arg: argInt, family: famNone},
}

// verbs maps the canonical (upper-case) verb to its op. Lookup is done on
// an ASCII-uppercased copy, making verbs case-insensitive.
var verbs = func() map[string]Op {
	m := make(map[string]Op, numOps)
	for op := OpInvalid + 1; op < numOps; op++ {
		m[ops[op].verb] = op
	}
	return m
}()

// info returns the op's table row (OpInvalid's for a value out of range).
func (o Op) info() *opInfo {
	if o >= numOps {
		o = OpInvalid
	}
	return &ops[o]
}

// String returns the canonical verb.
func (o Op) String() string {
	if o >= numOps {
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
	return ops[o].verb
}

// HasArg reports whether the op carries an integer argument.
func (o Op) HasArg() bool {
	k := o.info().arg
	return k == argInt || k == argKeyInt
}

// StringKeyed reports whether the op addresses the string-keyed map
// family: its routing key is a string token, hashed into the int key
// space for shard selection.
func (o Op) StringKeyed() bool { return o.info().family == famMap }

// Stageable reports whether the op may be queued inside a MULTI window:
// the transactional keyspace families (string map and counter). Staging
// anything else — structures without transactional backing, or control
// verbs — dirties the transaction so EXEC refuses it.
func (o Op) Stageable() bool { return o.info().stage }

// MaxTxnOps bounds the commands staged in one MULTI window, so a client
// cannot grow an unbounded buffer (or an unboundedly long commit) on the
// server's behalf.
const MaxTxnOps = 128

// Keyed reports whether the op addresses a sharded per-key family (the
// integer set or the string map). Keyed commands must execute on the
// shard owning their key; unkeyed commands run against shared structures
// and may execute on any shard, which is what lets a pipelined batch ride
// along with whatever run is already open.
func (o Op) Keyed() bool { return o.info().family <= famMap }

// ReadPure reports whether the op observes state without mutating it and
// addresses a single key: the candidates for the read bypass.
// Only keyed point reads qualify — READ and TXSTATS are global, STATS has
// a multi-line reply, and every other verb mutates.
func (o Op) ReadPure() bool { return o.info().read }

// Command is one parsed protocol line.
type Command struct {
	Op  Op
	Arg int64  // meaningful only when Op.HasArg()
	Key string // meaningful only when Op.StringKeyed()
}

// ShardKey is the integer the shard router hashes to pick a home shard:
// the FNV-1a hash of the string key for map ops, the integer argument
// otherwise. Using one extraction point for both families keeps run
// detection uniform — a contiguous run of same-shard HSETs batches
// exactly like a run of SETs (see engine.do and Server.serveBatch).
func (c Command) ShardKey() int64 {
	if c.Op.StringKeyed() {
		return int64(strmap.Hash(c.Key))
	}
	return c.Arg
}

// maxVerbLen is the longest canonical verb ("DISCARD", "TXSTATS").
const maxVerbLen = 7

// errEmptyCommand reports a line with no fields (or poisoned by a
// control byte; see ParseCommand).
var errEmptyCommand = errors.New("empty command")

// ParseCommand parses one line (without the trailing LF; a trailing CR is
// tolerated). It never panics on hostile input.
//
// The happy path is allocation-free: fields are subslices of line, the
// verb is uppercased into a stack buffer whose map lookup the compiler
// keeps off the heap, integers parse without the string round-trip, and
// only a map key escapes (Command.Key must outlive the read buffer the
// line aliases). Error paths may allocate; they answer one reply and
// never sit on the pipelined hot path.
func ParseCommand(line []byte) (Command, error) {
	if len(line) > MaxLineLen {
		return Command{}, ErrLineTooLong
	}
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	// Split on runs of spaces and tabs, in place: only the first three
	// fields can matter (a fourth is always an arity error), so at most
	// four subslices are recorded and the rest only counted. Any other
	// control byte poisons the line: no verb or decimal contains one,
	// and rejecting them here keeps garbage (including NULs from
	// half-open sockets) out of error messages.
	var tok [4][]byte
	ntok := 0
	start := -1
	for i := 0; i <= len(line); i++ {
		b := byte(' ')
		if i < len(line) {
			b = line[i]
		}
		switch {
		case b == ' ' || b == '\t':
			if start >= 0 {
				if ntok < len(tok) {
					tok[ntok] = line[start:i]
				}
				ntok++
				start = -1
			}
		case b < 0x20 || b == 0x7f:
			return Command{}, errEmptyCommand
		default:
			if start < 0 {
				start = i
			}
		}
	}
	if ntok == 0 {
		return Command{}, errEmptyCommand
	}
	v := tok[0]
	if len(v) > maxVerbLen {
		return Command{}, fmt.Errorf("unknown command %q", upperVerb(v))
	}
	var vb [maxVerbLen]byte
	for i := 0; i < len(v); i++ {
		b := v[i]
		if 'a' <= b && b <= 'z' {
			b -= 'a' - 'A'
		}
		vb[i] = b
	}
	op, ok := verbs[string(vb[:len(v)])]
	if !ok {
		return Command{}, fmt.Errorf("unknown command %q", string(vb[:len(v)]))
	}
	cmd := Command{Op: op}
	switch ops[op].arg {
	case argNone:
		if ntok != 1 {
			return Command{}, fmt.Errorf("%s takes no argument", op)
		}
	case argInt:
		if ntok != 2 {
			return Command{}, fmt.Errorf("%s needs exactly one integer argument", op)
		}
		arg, ok := parseInt(tok[1])
		if !ok {
			return Command{}, fmt.Errorf("bad integer %q", tok[1])
		}
		cmd.Arg = arg
	case argKey:
		if ntok != 2 {
			return Command{}, fmt.Errorf("%s needs exactly one key", op)
		}
		cmd.Key = string(tok[1])
	case argKeyInt:
		if ntok != 3 {
			return Command{}, fmt.Errorf("%s needs a key and an integer value", op)
		}
		arg, ok := parseInt(tok[2])
		if !ok {
			return Command{}, fmt.Errorf("bad integer %q", tok[2])
		}
		cmd.Key = string(tok[1])
		cmd.Arg = arg
	}
	return cmd, nil
}

// parseInt parses a signed base-10 64-bit decimal, accepting exactly
// what strconv.ParseInt(string(b), 10, 64) accepts — an optional sign
// and digits, rejecting overflow — without the string conversion.
func parseInt(b []byte) (int64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	neg := false
	if b[0] == '+' || b[0] == '-' {
		neg = b[0] == '-'
		b = b[1:]
		if len(b) == 0 {
			return 0, false
		}
	}
	const cutoff = uint64(1) << 63 // |MinInt64|
	var n uint64
	for _, c := range b {
		d := c - '0'
		if d > 9 {
			return 0, false
		}
		if n > (cutoff-uint64(d))/10 {
			return 0, false // past ±2^63 regardless of sign
		}
		n = n*10 + uint64(d)
	}
	if neg {
		return -int64(n), true // n ≤ 2^63, so the negation covers MinInt64
	}
	if n >= cutoff {
		return 0, false
	}
	return int64(n), true
}

// upperVerb uppercases ASCII letters of an unrecognized verb for its
// error message (error path only; allocates).
func upperVerb(v []byte) string {
	up := make([]byte, len(v))
	for i, b := range v {
		if 'a' <= b && b <= 'z' {
			b -= 'a' - 'A'
		}
		up[i] = b
	}
	return string(up)
}
