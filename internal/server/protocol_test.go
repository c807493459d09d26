package server

import (
	"bufio"
	"bytes"
	"net"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestParseCommandValid(t *testing.T) {
	cases := []struct {
		line string
		want Command
	}{
		{"SET 42", Command{Op: OpSet, Arg: 42}},
		{"set 42", Command{Op: OpSet, Arg: 42}},
		{"Set\t42", Command{Op: OpSet, Arg: 42}},
		{"  GET   7  ", Command{Op: OpGet, Arg: 7}},
		{"DEL -3", Command{Op: OpDel, Arg: -3}},
		{"HSET user:1 42", Command{Op: OpHSet, Key: "user:1", Arg: 42}},
		{"hset k -7", Command{Op: OpHSet, Key: "k", Arg: -7}},
		{"HGET user:1", Command{Op: OpHGet, Key: "user:1"}},
		{"  hget\tUPPER.low  ", Command{Op: OpHGet, Key: "UPPER.low"}},
		{"HDEL k", Command{Op: OpHDel, Key: "k"}},
		{"PUSH 9223372036854775807", Command{Op: OpPush, Arg: 9223372036854775807}},
		{"POP", Command{Op: OpPop}},
		{"ENQ -9223372036854775808", Command{Op: OpEnq, Arg: -9223372036854775808}},
		{"DEQ", Command{Op: OpDeq}},
		{"INC", Command{Op: OpInc}},
		{"READ", Command{Op: OpRead}},
		{"PQADD 5", Command{Op: OpPQAdd, Arg: 5}},
		{"PQMIN", Command{Op: OpPQMin}},
		{"STATS", Command{Op: OpStats}},
		{"ping", Command{Op: OpPing}},
		{"QUIT", Command{Op: OpQuit}},
		{"QUIT\r", Command{Op: OpQuit}},
	}
	for _, c := range cases {
		got, err := ParseCommand([]byte(c.line))
		if err != nil {
			t.Errorf("ParseCommand(%q) error: %v", c.line, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseCommand(%q) = %+v, want %+v", c.line, got, c.want)
		}
	}
}

func TestParseCommandInvalid(t *testing.T) {
	cases := []string{
		"",
		"   ",
		"\r",
		"FROB 1",                          // unknown verb
		"SET",                             // missing argument
		"SET 1 2",                         // extra argument
		"SET x",                           // non-integer
		"SET 99999999999999999999999",     // overflow
		"SET 1.5",                         // float
		"HSET",                            // missing key and value
		"HSET k",                          // missing value
		"HSET k v",                        // non-integer value
		"HSET k 1 2",                      // extra argument
		"HGET",                            // missing key
		"HGET a b",                        // extra token
		"HDEL",                            // missing key
		"HDEL k\x7f",                      // control byte in key
		"POP 1",                           // unexpected argument
		"STATS now",                       // unexpected argument
		"SET\x001",                        // NUL byte
		"GET \x0142",                      // control byte
		"SET " + strings.Repeat("9", 200), // oversized line
	}
	for _, line := range cases {
		if cmd, err := ParseCommand([]byte(line)); err == nil {
			t.Errorf("ParseCommand(%q) = %+v, want error", line, cmd)
		}
	}
}

func TestParseCommandTooLong(t *testing.T) {
	line := "SET " + strings.Repeat("1", MaxLineLen)
	if _, err := ParseCommand([]byte(line)); err != ErrLineTooLong {
		t.Errorf("ParseCommand(len %d) error = %v, want ErrLineTooLong", len(line), err)
	}
}

// TestOpTable checks the verb table against itself and against the
// hard-coded lists the six Op methods were before the table existed,
// written out here as the reference.
func TestOpTable(t *testing.T) {
	verbsRef := []string{"SET", "GET", "DEL", "HSET", "HGET", "HDEL", "HINCR", "PUSH", "POP",
		"ENQ", "DEQ", "INC", "READ", "PQADD", "PQMIN", "STATS", "PING", "QUIT",
		"MULTI", "EXEC", "DISCARD", "TXSTATS", "SAVE", "BGSAVE", "RESTORE", "RESHARD"}
	set := func(ops ...Op) map[Op]bool {
		m := make(map[Op]bool)
		for _, o := range ops {
			m[o] = true
		}
		return m
	}
	hasArg := set(OpSet, OpGet, OpDel, OpHSet, OpHIncr, OpPush, OpEnq, OpPQAdd, OpReshard)
	stringKeyed := set(OpHSet, OpHGet, OpHDel, OpHIncr)
	stageable := set(OpHSet, OpHGet, OpHDel, OpHIncr, OpInc, OpRead)
	keyed := set(OpSet, OpGet, OpDel, OpHSet, OpHGet, OpHDel, OpHIncr)
	readPure := set(OpGet, OpHGet)
	// STATS prints the op rows in this order.
	metricsRef := []string{"set.add", "set.contains", "set.remove", "map.set", "map.get", "map.del",
		"map.incr", "stack.push", "stack.pop", "queue.enq", "queue.deq", "counter.inc", "counter.read",
		"pqueue.add", "pqueue.min"}

	if int(numOps)-1 != len(verbsRef) {
		t.Fatalf("numOps-1 = %d, reference lists %d verbs", numOps-1, len(verbsRef))
	}
	var metrics []string
	puts, gets := map[family]int{}, map[family]int{}
	for op := OpInvalid + 1; op < numOps; op++ {
		info := ops[op]
		if op.String() != verbsRef[op-1] || len(info.verb) > maxVerbLen {
			t.Errorf("Op %d is %q, want %q within %d bytes", op, op, verbsRef[op-1], maxVerbLen)
		}
		// The verb round-trips through the parser with its argument shape.
		line := strings.ToLower(info.verb) + map[argKind]string{argInt: " 4", argKey: " k", argKeyInt: " k 4"}[info.arg]
		want := Command{Op: op}
		if info.arg == argInt || info.arg == argKeyInt {
			want.Arg = 4
		}
		if info.arg == argKey || info.arg == argKeyInt {
			want.Key = "k"
		}
		if got, err := ParseCommand([]byte(line)); err != nil || got != want {
			t.Errorf("ParseCommand(%q) = %+v, %v; want %+v", line, got, err, want)
		}
		for name, p := range map[string][2]bool{
			"HasArg":      {op.HasArg(), hasArg[op]},
			"StringKeyed": {op.StringKeyed(), stringKeyed[op]},
			"Stageable":   {op.Stageable(), stageable[op]},
			"Keyed":       {op.Keyed(), keyed[op]},
			"ReadPure":    {op.ReadPure(), readPure[op]},
		} {
			if p[0] != p[1] {
				t.Errorf("%s.%s() = %v, want %v", op, name, p[0], p[1])
			}
		}
		if data := info.family != famNone; data != (info.metric != "") {
			t.Errorf("%s: family %s with metric row %q", op, info.family, info.metric)
		}
		if info.metric != "" {
			metrics = append(metrics, info.metric)
		}
		if info.stage && info.family != famMap && info.family != famCounter {
			t.Errorf("%s is stageable but addresses the %s family", op, info.family)
		}
		if pooled := info.family >= famQueue && info.family <= famPQ; pooled && info.put {
			puts[info.family]++
		} else if pooled {
			gets[info.family]++
		} else if info.put {
			t.Errorf("%s is a put on the %s family, not a pool", op, info.family)
		}
	}
	if !slices.Equal(metrics, metricsRef) {
		t.Errorf("metric rows %v, want %v", metrics, metricsRef)
	}
	for f := famQueue; f <= famPQ; f++ {
		if puts[f] != 1 || gets[f] != 1 {
			t.Errorf("pool %s has %d put and %d get verbs, want one each", f, puts[f], gets[f])
		}
	}
	// Values outside the table answer like OpInvalid and never index it.
	for _, op := range []Op{OpInvalid, numOps, 200} {
		if op.HasArg() || op.StringKeyed() || op.Stageable() || op.Keyed() || op.ReadPure() {
			t.Errorf("Op(%d) satisfies a predicate", uint8(op))
		}
	}
	if got := Op(200).String(); got != "Op(200)" {
		t.Errorf("Op(200).String() = %q", got)
	}
}

// Reply expectations for FuzzPipeline, mirroring the framing rules of
// Server.handle and serveBatch.
const (
	expAny   = iota // exactly one non-empty reply line, any content
	expExact        // one reply line with this exact text
	expErr          // one reply line starting with "ERR "
	expStats        // a STATS block: lines up to and including "END"
)

type pipeExpect struct {
	kind int
	text string
}

// simulatePipeline is the oracle for FuzzPipeline: it walks data with the
// server's own framing rules and returns the reply sequence a correct
// server must produce, plus how many bytes the client should send —
// writing past a line that closes the connection (QUIT, or one that
// overflows the read buffer) races the close and risks a TCP reset
// destroying replies in flight, so the client stops there.
func simulatePipeline(data []byte, txnOff bool) (exps []pipeExpect, consume int) {
	ps := pipeSim{txnOff: txnOff}
	pos := 0
	for pos < len(data) {
		nl := bytes.IndexByte(data[pos:], '\n')
		content := data[pos:]
		if nl >= 0 {
			content = data[pos : pos+nl]
		}
		if len(content) > MaxLineLen+1 {
			// Overflows the connection's read buffer: bufio.ErrBufferFull,
			// one ERR reply, connection closed.
			exps = append(exps, pipeExpect{kind: expErr})
			if nl >= 0 {
				return exps, pos + nl + 1
			}
			return exps, len(data)
		}
		if nl < 0 {
			// Final line without a terminator: served at EOF when
			// non-empty, silent close when empty.
			if len(content) > 0 {
				e, _ := ps.step(content)
				exps = append(exps, e...)
			}
			return exps, len(data)
		}
		e, closed := ps.step(content)
		exps = append(exps, e...)
		pos += nl + 1
		if closed {
			return exps, pos // QUIT: server closes after the OK
		}
	}
	return exps, len(data)
}

// pipeSim mirrors the per-connection MULTI window state machine of the
// connection loop (Server.control, txnVerb and stage) in its own words —
// two switches, one per window state, where the server has one — so the
// oracle stays line-accurate through transactions. With txnOff the four transaction verbs answer
// ERR and no window ever opens — the -txn off server config FuzzPipeline
// runs on even chunk bytes. Reply counts and order are identical whether
// a read rides the mailbox or the wait-free bypass, which is exactly the
// property the fuzzer pins: bypassed replies must interleave back into
// line order.
type pipeSim struct {
	txnOff bool // transactions disabled: MULTI family answers ERR
	active bool // inside a MULTI window
	dirty  bool // a staging error poisoned the window
	staged int  // commands queued so far
}

func (ps *pipeSim) reset() { ps.active, ps.dirty, ps.staged = false, false, 0 }

// step maps one line's content to its reply expectations (an EXEC yields
// the array header plus one line per staged command) and reports whether
// the server closes the connection afterwards.
func (ps *pipeSim) step(content []byte) (exps []pipeExpect, closed bool) {
	one := func(kind int, text string) ([]pipeExpect, bool) {
		return []pipeExpect{{kind: kind, text: text}}, false
	}
	cmd, err := ParseCommand(content)
	if ps.active {
		switch {
		case err != nil:
			ps.dirty = true
			return one(expErr, "")
		case cmd.Op == OpMulti:
			ps.dirty = true
			return one(expErr, "")
		case cmd.Op == OpExec:
			if ps.dirty {
				ps.reset()
				return one(expErr, "")
			}
			n := ps.staged
			ps.reset()
			exps = append(exps, pipeExpect{kind: expExact, text: "*" + strconv.Itoa(n)})
			for i := 0; i < n; i++ {
				exps = append(exps, pipeExpect{kind: expAny})
			}
			return exps, false
		case cmd.Op == OpDiscard:
			ps.reset()
			return one(expExact, "OK")
		case cmd.Op == OpQuit:
			ps.reset()
			exps, _ = one(expExact, "OK")
			return exps, true
		case cmd.Op == OpPing:
			return one(expExact, "PONG")
		case cmd.Op == OpStats:
			return one(expStats, "")
		case cmd.Op == OpTxStats:
			return one(expAny, "")
		case !cmd.Op.Stageable(), ps.staged >= MaxTxnOps:
			ps.dirty = true
			return one(expErr, "")
		default:
			ps.staged++
			return one(expExact, "+QUEUED")
		}
	}
	switch {
	case err != nil:
		return one(expErr, "")
	case cmd.Op == OpQuit:
		exps, _ = one(expExact, "OK")
		return exps, true
	case cmd.Op == OpPing:
		return one(expExact, "PONG")
	case cmd.Op == OpStats:
		return one(expStats, "")
	case ps.txnOff && (cmd.Op == OpMulti || cmd.Op == OpExec ||
		cmd.Op == OpDiscard || cmd.Op == OpTxStats):
		return one(expErr, "")
	case cmd.Op == OpMulti:
		ps.active = true
		return one(expExact, "OK")
	case cmd.Op == OpExec, cmd.Op == OpDiscard:
		return one(expErr, "")
	case cmd.Op == OpTxStats:
		return one(expAny, "")
	default:
		return one(expAny, "")
	}
}

// FuzzPipeline feeds arbitrary byte streams — multi-line pipelines,
// partial writes, oversized lines — to a live server connection and
// asserts the pipelined read path answers exactly one reply per
// well-formed line, in order, closes when the protocol says so, and
// leaks no goroutines.
func FuzzPipeline(f *testing.F) {
	seeds := []string{
		"SET 1\nGET 1\nDEL 1\n",
		"PING\nSTATS\nINC\nREAD\n",
		"ENQ 5\nDEQ\nPUSH 6\nPOP\nPQADD 2\nPQMIN\n",
		"QUIT\nSET 9\n",                                                             // data after QUIT is ignored
		"SET 1",                                                                     // final line without newline
		"\n\n \n\r\n",                                                               // empty and blank lines each get an ERR
		"FROB\nSET x\nSET 1 2\n",                                                    // parse errors keep the connection open
		"SET " + strings.Repeat("9", 200) + "\nGET 1\n",                             // oversized: ERR + close, GET unanswered
		strings.Repeat("A", 300),                                                    // oversized final line, no newline
		"SET 1\n" + strings.Repeat("B", MaxLineLen+1) + "\n",                        // max content that still frames: ERR, stays open
		"GET -9223372036854775808\n",                                                // reserved key error from the engine
		"HSET k 1\nHGET k\nHDEL k\nHGET k\n",                                        // map family round trip
		"hset CaSe 7\r\nHGET CaSe\r\nhget case\r\n",                                 // verbs fold, keys do not
		"HSET k\nHGET\nHDEL a b\nHSET  pad  3 \nHGET\tpad\n",                        // arity errors + embedded whitespace
		"HGET " + strings.Repeat("K", MaxLineLen-5) + "\n",                          // key at the MaxLineLen boundary
		"HSET " + strings.Repeat("K", MaxLineLen) + " 1\nHGET x\n",                  // oversized key: ERR + close
		"MULTI\nEXEC\n",                                                             // empty transaction commits *0
		"MULTI\nHSET k 1\nINC\nHGET k\nREAD\nEXEC\nHGET k\n",                        // mixed txn, then a fast read
		"MULTI\nMULTI\nHSET k 1\nEXEC\nEXEC\n",                                      // nested MULTI poisons the window
		"DISCARD\nEXEC\nTXSTATS\nMULTI\nTXSTATS\nEXEC\n",                            // txn control with and without a window
		"MULTI\nHSET k 1\nDISCARD\nHGET k\n",                                        // DISCARD drops the buffer
		"MULTI\nPUSH 1\nPING\nSTATS\nFROB\nEXEC\n",                                  // non-stageable + control verbs inside
		"MULTI\nHINCR k 2\nQUIT\nEXEC 1\n",                                          // QUIT mid-transaction closes
		"MULTI\n" + strings.Repeat("INC\n", MaxTxnOps+1) + "EXEC\n",                 // overflowing the staged buffer
		"SET 1\nGET 1\nSET 2\nGET 1\nGET 2\nDEL 1\nGET 1\nGET 2\n",                  // bypass reads interleave with writes
		"HSET k 1\nHGET k\nSET 3\nGET 3\nHGET k\nHDEL k\nHGET k\nQUIT\n",            // both read families, then QUIT
		"MULTI\nHSET k 9\nHGET k\nEXEC\nHGET k\nGET 5\nMULTI\nSET 5\nEXEC\nGET 5\n", // reads inside and after MULTI
		"GET 1\nGET 1\nGET 1\nHGET h\nHSET h 2\nHGET h\nMULTI\nHDEL h\nEXEC\nHGET h\nQUIT\n",
		// Control verbs mixed into windows: the durability verbs poison,
		// the connection and transaction verbs answer in place, a parse
		// error poisons, and the next window starts clean.
		"MULTI\nSAVE\nBGSAVE\nRESTORE x\nRESHARD 4\nPING\nTXSTATS\nEXEC\nPING\n",
		"MULTI\nFROB\nDISCARD\nMULTI\nHSET k 1\nSTATS\nTXSTATS\nEXEC\nDISCARD\n",
		"MULTI\nRESHARD 4\nDISCARD\nMULTI\nINC\nEXEC\nEXEC\nQUIT\n",
		"TXSTATS\nMULTI\nMULTI\nDISCARD\nDISCARD\nMULTI\nQUIT\nEXEC\n",
		"MULTI\nPING\nHSET\nPING\nEXEC\nMULTI\nPING\nREAD\nSTATS\nEXEC\nRESTORE a/b\n",
		// Mailbox pressure: deep pipelines of same-shard keyed runs (one
		// key → one shard → maximal contiguous batches through one mailbox),
		// with QUIT cutting the burst so accepted-but-unanswered lines
		// race the teardown drain.
		strings.Repeat("SET 7\n", 192) + "QUIT\n" + strings.Repeat("SET 7\n", 8), // deep run past maxBatch, QUIT mid-burst
		strings.Repeat("HSET deep 1\nHINCR deep 3\n", 80),                        // same string key: alternating-op spans, one shard
		strings.Repeat("SET 5\nDEL 5\n", 100) + "QUIT\nSET 5\n",                  // same-key churn, then QUIT with trailing data
		strings.Repeat("ENQ 1\n", 150) + "QUIT",                                  // unkeyed deep run, unterminated QUIT
		strings.Repeat("SET 3\nGET 3\n", 96) + "QUIT\n",                          // bypass reads interleaved into a deep run
	}
	for i, s := range seeds {
		f.Add([]byte(s), byte(i*7+1))
	}
	snapDir := f.TempDir() // where a fuzzed SAVE or BGSAVE lands
	f.Fuzz(func(t *testing.T, data []byte, chunk byte) {
		if len(data) > 2048 {
			data = data[:2048]
		}
		// Even chunk bytes swap in the epoch-backed bypass config: every
		// GET/HGET is served on the connection goroutine under an epoch
		// pin instead of riding the shard mailbox, and with transactions
		// off the MULTI verbs answer ERR. Odd bytes keep the default
		// engine (striped set — GET on the mailbox — and HGET bypassing
		// via the tl2 keyspace), so both read paths face the same oracle.
		// MaxShards leaves RESHARD no headroom: outside a window it answers
		// ERR instead of starting shard goroutines the leak check below
		// would count against the connection.
		txnOff := chunk%2 == 0
		opts := Options{Shards: 2, MaxShards: 2, SnapshotDir: snapDir}
		if txnOff {
			opts.Set, opts.Map, opts.Txn = "skip-epoch", "epoch", "off"
		}
		exps, consume := simulatePipeline(data, txnOff)

		srv := startServer(t, opts)
		base := runtime.NumGoroutine()
		conn, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer conn.Close()

		// Write in small chunks so the server sees partial lines, then
		// half-close: the server must still answer everything sent.
		size := int(chunk)%16 + 1
		for off := 0; off < consume; off += size {
			end := off + size
			if end > consume {
				end = consume
			}
			if _, err := conn.Write(data[off:end]); err != nil {
				t.Fatalf("write chunk at %d: %v", off, err)
			}
		}
		if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
			t.Fatalf("CloseWrite: %v", err)
		}

		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		r := bufio.NewReader(conn)
		for i, e := range exps {
			line, err := r.ReadString('\n')
			if err != nil {
				t.Fatalf("reply %d/%d: %v (input %q)", i+1, len(exps), err, data)
			}
			line = strings.TrimSuffix(line, "\n")
			switch e.kind {
			case expExact:
				if line != e.text {
					t.Fatalf("reply %d = %q, want %q (input %q)", i+1, line, e.text, data)
				}
			case expErr:
				if !strings.HasPrefix(line, "ERR ") {
					t.Fatalf("reply %d = %q, want ERR (input %q)", i+1, line, data)
				}
			case expAny:
				if line == "" {
					t.Fatalf("reply %d empty (input %q)", i+1, data)
				}
			case expStats:
				for n := 0; line != "END"; n++ {
					if n > 10_000 {
						t.Fatalf("STATS block for reply %d never reached END", i+1)
					}
					line, err = r.ReadString('\n')
					if err != nil {
						t.Fatalf("STATS block for reply %d: %v", i+1, err)
					}
					line = strings.TrimSuffix(line, "\n")
				}
			}
		}
		if extra, err := r.ReadString('\n'); err == nil || len(extra) > 0 {
			t.Fatalf("unexpected extra reply %q after %d expected (input %q)", extra, len(exps), data)
		}

		// The handler goroutine must exit once the connection is done.
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				t.Fatalf("goroutine leak: %d live, %d at baseline\n%s",
					runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
			}
			time.Sleep(time.Millisecond)
		}
	})
}

// FuzzParseCommand asserts the parser never panics and that accepted
// commands are well-formed.
func FuzzParseCommand(f *testing.F) {
	seeds := []string{
		"SET 42", "GET 1", "DEL -1", "PUSH 0", "POP", "ENQ 5", "DEQ",
		"INC", "READ", "PQADD 3", "PQMIN", "STATS", "PING", "QUIT",
		"", " ", "set\t1", "SET  1 ", "FOO", "SET \x00", "SET 1\r",
		"HSET k 1", "HGET k", "HDEL  k ", "HSET k", "HGET a b",
		"HINCR k 5", "HINCR k -5", "HINCR k", "HINCR k x",
		"MULTI", "EXEC", "DISCARD", "TXSTATS", "MULTI 1",
		"hset \x01k 2", "HDEL " + strings.Repeat("x", MaxLineLen),
		strings.Repeat("A", 200),
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		cmd, err := ParseCommand(line)
		if err != nil {
			return
		}
		if cmd.Op == OpInvalid || cmd.Op >= numOps {
			t.Fatalf("accepted command with invalid op: %+v from %q", cmd, line)
		}
		if !cmd.Op.HasArg() && cmd.Arg != 0 {
			t.Fatalf("argless op carries arg: %+v from %q", cmd, line)
		}
		if cmd.Op.StringKeyed() != (cmd.Key != "") {
			t.Fatalf("key/op mismatch: %+v from %q", cmd, line)
		}
		for i := 0; i < len(cmd.Key); i++ {
			if b := cmd.Key[i]; b <= ' ' || b == 0x7f {
				t.Fatalf("accepted key with separator or control byte: %+v from %q", cmd, line)
			}
		}
	})
}
