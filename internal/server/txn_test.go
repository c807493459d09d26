package server

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"amp/internal/core"
)

// txnMatrix is the engine/contention-manager matrix the acceptance
// criteria require: TL2 plus DSTM under at least two managers.
var txnMatrix = []struct{ engine, cm string }{
	{"tl2", "aggressive"},
	{"dstm", "aggressive"},
	{"dstm", "backoff"},
}

// multiShardKeys asserts the alphabet spans at least two shards, so a
// transaction over it genuinely commits across shard boundaries.
func multiShardKeys(t *testing.T, shards int, keys []string) []string {
	t.Helper()
	seen := make(map[int]bool)
	for _, k := range keys {
		seen[shardOf(k, shards)] = true
	}
	if len(seen) < 2 {
		t.Fatalf("keys %v cover %d shard(s), want >= 2", keys, len(seen))
	}
	return keys
}

func TestServeTxnFamily(t *testing.T) {
	for _, m := range txnMatrix {
		t.Run(m.engine+"/"+m.cm, func(t *testing.T) {
			srv := startServer(t, Options{Shards: 4, Txn: m.engine, CM: m.cm})
			c := dial(t, srv)

			// HINCR outside any transaction.
			c.expect(t, "HINCR bal:a 10", "10")
			c.expect(t, "HINCR bal:a -3", "7")
			c.expect(t, "HINCR", "ERR HINCR needs a key and an integer value")

			// A committed cross-key transaction; one +QUEUED per staged
			// line, exactly one *N array.
			c.expect(t, "MULTI", "OK")
			c.expect(t, "HSET bal:b 5", "+QUEUED")
			c.expect(t, "HGET bal:a", "+QUEUED")
			c.expect(t, "HINCR bal:a -7", "+QUEUED")
			c.expect(t, "HDEL bal:missing", "+QUEUED")
			c.expect(t, "INC", "+QUEUED")
			c.expect(t, "READ", "+QUEUED")
			c.expect(t, "EXEC", "*6")
			for i, want := range []string{"1", "7", "0", "0", "0", "1"} {
				if got := c.readLine(t); got != want {
					t.Fatalf("EXEC reply %d = %q, want %q", i, got, want)
				}
			}
			c.expect(t, "HGET bal:a", "0")
			c.expect(t, "HGET bal:b", "5")
			c.expect(t, "READ", "1")

			// Empty buffer commits to an empty array.
			c.expect(t, "MULTI", "OK")
			c.expect(t, "EXEC", "*0")

			// DISCARD drops the buffer without executing it.
			c.expect(t, "MULTI", "OK")
			c.expect(t, "HSET bal:b 99", "+QUEUED")
			c.expect(t, "DISCARD", "OK")
			c.expect(t, "HGET bal:b", "5")

			// Staging errors poison the window: EXEC refuses and resets.
			c.expect(t, "MULTI", "OK")
			c.expect(t, "HSET bal:b 99", "+QUEUED")
			c.expect(t, "MULTI", "ERR MULTI calls cannot be nested")
			c.expect(t, "PUSH 1", "ERR PUSH cannot be staged in MULTI")
			c.expect(t, "FROB", `ERR unknown command "FROB"`)
			c.expect(t, "EXEC", "ERR EXEC aborted (errors while queueing)")
			c.expect(t, "HGET bal:b", "5")

			// Out-of-window EXEC/DISCARD are errors.
			c.expect(t, "EXEC", "ERR EXEC without MULTI")
			c.expect(t, "DISCARD", "ERR DISCARD without MULTI")

			// Control verbs run in place inside a window.
			c.expect(t, "MULTI", "OK")
			c.expect(t, "PING", "PONG")
			stats := readStats(t, c, c.cmd(t, "STATS"))
			if !strings.Contains(stats, "txn engine="+m.engine+" cm="+m.cm) {
				t.Fatalf("STATS missing txn line:\n%s", stats)
			}
			tx := c.cmd(t, "TXSTATS")
			if !strings.Contains(tx, "engine="+m.engine) ||
				!strings.Contains(tx, "commits=") || !strings.Contains(tx, "aborts=") {
				t.Fatalf("TXSTATS = %q", tx)
			}
			c.expect(t, "HINCR bal:a 1", "+QUEUED")
			c.expect(t, "EXEC", "*1")
			if got := c.readLine(t); got != "1" {
				t.Fatalf("EXEC array element = %q, want %q", got, "1")
			}
			c.expect(t, "QUIT", "OK")
		})
	}
}

func TestTxnStatsCounters(t *testing.T) {
	srv := startServer(t, Options{Shards: 2})
	c := dial(t, srv)
	c.expect(t, "MULTI", "OK")
	c.expect(t, "HINCR k 1", "+QUEUED")
	c.expect(t, "EXEC", "*1")
	if got := c.readLine(t); got != "1" {
		t.Fatalf("EXEC array element = %q, want %q", got, "1")
	}
	c.expect(t, "HSET j 2", "1") // fast path is transactional too

	body := readStats(t, c, c.cmd(t, "STATS"))
	if !strings.Contains(body, "op txn.commit count=") {
		t.Fatalf("STATS missing txn.commit:\n%s", body)
	}
	if !strings.Contains(body, "op txn.abort count=") {
		t.Fatalf("STATS missing txn.abort:\n%s", body)
	}
	var commit int64
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "op txn.commit count=") {
			commit, _ = strconv.ParseInt(strings.TrimPrefix(line, "op txn.commit count="), 10, 64)
		}
	}
	if commit < 2 { // at least the EXEC and the fast HSET
		t.Fatalf("txn.commit count = %d, want >= 2", commit)
	}
	snap := srv.Stats()
	found := false
	for _, row := range snap {
		if row.Name == "txn.commit" && row.Count >= 2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("Stats() snapshot missing txn.commit row: %+v", snap)
	}
}

func TestTxnDisabled(t *testing.T) {
	srv := startServer(t, Options{Shards: 2, Txn: "off"})
	c := dial(t, srv)
	want := "ERR transactions disabled (-txn off)"
	c.expect(t, "MULTI", want)
	c.expect(t, "EXEC", want)
	c.expect(t, "DISCARD", want)
	c.expect(t, "TXSTATS", want)
	// HINCR still works, served by the shard dictionary.
	c.expect(t, "HINCR k 4", "4")
	c.expect(t, "HINCR k 4", "8")
	c.expect(t, "HGET k", "8")
	body := readStats(t, c, c.cmd(t, "STATS"))
	if !strings.Contains(body, "txn off") {
		t.Fatalf("STATS missing 'txn off':\n%s", body)
	}
	if strings.Contains(body, "op txn.commit") {
		t.Fatalf("STATS has txn counters while off:\n%s", body)
	}
	// ...and the backend row names the -map/-counter structures serving.
	if !strings.Contains(body, " map=striped ") || !strings.Contains(body, " counter=combining ") {
		t.Fatalf("STATS backend row does not name the -map/-counter backends:\n%s", body)
	}
}

// TestTxnControlMatrix is the whole control plane of the connection loop
// as one table: each of the eleven control verbs, met with no window, a
// clean window holding one staged HSET, a window already poisoned, and
// under -txn off, answers exactly these reply lines and leaves the window
// in exactly this state. A state reads "idle", "open:N" or "dirty:N" (N
// staged commands), "closed" is idle plus serveBatch asking to close, and
// "=" is the state the column started in.
func TestTxnControlMatrix(t *testing.T) {
	const (
		stats   = "<STATS>" // a body from "shards 2" through "END"
		txstats = "engine=tl2 cm=aggressive commits=0 aborts=0"
		off     = "ERR transactions disabled (-txn off)"
		notPath = "ERR RESTORE takes a snapshot filename under -snapshot-dir, not a path"
	)
	type cell struct{ reply, after string }
	noStage := func(verb string) cell { return cell{"ERR " + verb + " cannot be staged in MULTI", "dirty:1"} }
	columns := []struct {
		name, start string
		txn         string
		setup       []string
	}{
		{"no window", "idle", "tl2", nil},
		{"clean window", "open:1", "tl2", []string{"MULTI", "HSET k 1"}},
		{"dirty window", "dirty:1", "tl2", []string{"MULTI", "HSET k 1", "PUSH 1"}},
		{"txn off", "idle", "off", nil},
	}
	rows := []struct {
		line string
		want [4]cell
	}{
		{"STATS", [4]cell{{stats, "="}, {stats, "="}, {stats, "="}, {stats, "="}}},
		{"PING", [4]cell{{"PONG", "="}, {"PONG", "="}, {"PONG", "="}, {"PONG", "="}}},
		{"QUIT", [4]cell{{"OK", "closed"}, {"OK", "closed"}, {"OK", "closed"}, {"OK", "closed"}}},
		{"MULTI", [4]cell{{"OK", "open:0"}, {"ERR MULTI calls cannot be nested", "dirty:1"},
			{"ERR MULTI calls cannot be nested", "="}, {off, "="}}},
		{"EXEC", [4]cell{{"ERR EXEC without MULTI", "="}, {"*1\n1", "idle"},
			{"ERR EXEC aborted (errors while queueing)", "idle"}, {off, "="}}},
		{"DISCARD", [4]cell{{"ERR DISCARD without MULTI", "="}, {"OK", "idle"}, {"OK", "idle"}, {off, "="}}},
		{"TXSTATS", [4]cell{{txstats, "="}, {txstats, "="}, {txstats, "="}, {off, "="}}},
		{"SAVE", [4]cell{{"OK", "="}, noStage("SAVE"), noStage("SAVE"), {"OK", "="}}},
		{"BGSAVE", [4]cell{{"OK", "="}, noStage("BGSAVE"), noStage("BGSAVE"), {"OK", "="}}},
		{"RESTORE a/b", [4]cell{{notPath, "="}, noStage("RESTORE"), noStage("RESTORE"), {notPath, "="}}},
		{"RESHARD 4", [4]cell{{"OK", "="}, noStage("RESHARD"), noStage("RESHARD"), {"OK", "="}}},
	}
	state := func(ts *txnState) string {
		switch {
		case !ts.active && !ts.dirty && len(ts.staged) == 0:
			return "idle"
		case ts.active && ts.dirty:
			return fmt.Sprintf("dirty:%d", len(ts.staged))
		case ts.active:
			return fmt.Sprintf("open:%d", len(ts.staged))
		}
		return fmt.Sprintf("invalid %+v", *ts)
	}
	for _, row := range rows {
		for ci, col := range columns {
			t.Run(row.line+"/"+col.name, func(t *testing.T) {
				srv, err := New(Options{Shards: 2, Txn: col.txn, SnapshotDir: t.TempDir()})
				if err != nil {
					t.Fatal(err)
				}
				defer srv.Shutdown(context.Background())
				var buf bytes.Buffer
				w, ts := bufio.NewWriter(&buf), &txnState{}
				serve := func(lines ...string) bool {
					items := make([]lineItem, len(lines))
					for i, l := range lines {
						items[i] = parseItem([]byte(l))
					}
					open := srv.serveBatch(w, items, ts)
					if err := w.Flush(); err != nil {
						t.Fatal(err)
					}
					return open
				}
				if !serve(col.setup...) || state(ts) != col.start {
					t.Fatalf("setup %q left the window %s, want %s", col.setup, state(ts), col.start)
				}
				buf.Reset()

				open := serve(row.line)
				got, want := strings.TrimSuffix(buf.String(), "\n"), row.want[ci]
				if want.reply == stats {
					if !strings.HasPrefix(got, "shards 2\n") || !strings.HasSuffix(got, "\nEND") {
						t.Errorf("reply %q, want a STATS body", got)
					}
				} else if got != want.reply {
					t.Errorf("reply %q, want %q", got, want.reply)
				}
				after := state(ts)
				if !open && after == "idle" {
					after = "closed"
				}
				if want.after == "=" {
					want.after = col.start
				}
				if after != want.after {
					t.Errorf("window %s afterwards (open=%v), want %s", after, open, want.after)
				}
			})
		}
	}
}

// TestTxnStagedBufferCap checks the MaxTxnOps bound: the overflowing
// line answers ERR and poisons the window.
func TestTxnStagedBufferCap(t *testing.T) {
	srv := startServer(t, Options{Shards: 2})
	c := dial(t, srv)
	c.expect(t, "MULTI", "OK")
	for i := 0; i < MaxTxnOps; i++ {
		c.expect(t, "INC", "+QUEUED")
	}
	c.expect(t, "INC", fmt.Sprintf("ERR transaction exceeds %d staged commands", MaxTxnOps))
	c.expect(t, "EXEC", "ERR EXEC aborted (errors while queueing)")
	c.expect(t, "READ", "0") // nothing committed
}

// txnHistoryClient replays a mix of plain map/counter traffic and
// MULTI/EXEC transactions over one connection, recording every operation
// for the linearizability checker. Fast ops are pipelined up to depth;
// a transaction flushes the window and runs as its own round trip.
func txnHistoryClient(addr string, rec *core.Recorder, me core.ThreadID,
	keys []string, depth, ops, id int) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	rng := rand.New(rand.NewSource(int64(id)*104729 + 7))

	type sent struct {
		pend *core.PendingOp
		act  string
	}
	window := make([]sent, 0, depth)

	readReply := func(act string) (any, error) {
		line, err := r.ReadString('\n')
		if err != nil {
			return nil, err
		}
		line = strings.TrimSuffix(line, "\n")
		switch act {
		case "get":
			if line == "EMPTY" {
				return core.Empty, nil
			}
			v, err := strconv.ParseInt(line, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("get reply %q", line)
			}
			return v, nil
		case "set", "del":
			switch line {
			case "1":
				return true, nil
			case "0":
				return false, nil
			}
			return nil, fmt.Errorf("%s reply %q", act, line)
		default: // incr, inc, read
			v, err := strconv.ParseInt(line, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("%s reply %q", act, line)
			}
			return v, nil
		}
	}
	drainWindow := func() error {
		if len(window) == 0 {
			return nil
		}
		if err := w.Flush(); err != nil {
			return err
		}
		conn.SetReadDeadline(time.Now().Add(20 * time.Second))
		for _, s := range window {
			out, err := readReply(s.act)
			if err != nil {
				return err
			}
			s.pend.Done(out)
		}
		window = window[:0]
		return nil
	}

	expectLine := func(want string) error {
		line, err := r.ReadString('\n')
		if err != nil {
			return err
		}
		if got := strings.TrimSuffix(line, "\n"); got != want {
			return fmt.Errorf("got %q, want %q", got, want)
		}
		return nil
	}

	for next := 0; next < ops; next++ {
		if len(window) >= depth {
			if err := drainWindow(); err != nil {
				return err
			}
		}
		key := keys[rng.Intn(len(keys))]
		switch pick := rng.Intn(10); {
		case pick < 2: // HSET with a client-unique value
			v := int64(id*1_000_000 + next)
			window = append(window, sent{rec.Call(me, "set", core.MapSetInput{K: key, V: v}), "set"})
			fmt.Fprintf(w, "HSET %s %d\n", key, v)
		case pick < 4:
			window = append(window, sent{rec.Call(me, "get", key), "get"})
			fmt.Fprintf(w, "HGET %s\n", key)
		case pick < 5:
			window = append(window, sent{rec.Call(me, "del", key), "del"})
			fmt.Fprintf(w, "HDEL %s\n", key)
		case pick < 6:
			d := int64(1 + rng.Intn(5))
			window = append(window, sent{rec.Call(me, "incr", core.MapSetInput{K: key, V: d}), "incr"})
			fmt.Fprintf(w, "HINCR %s %d\n", key, d)
		case pick < 7:
			window = append(window, sent{rec.Call(me, "inc", nil), "inc"})
			fmt.Fprintf(w, "INC\n")
		case pick < 8:
			window = append(window, sent{rec.Call(me, "read", nil), "read"})
			fmt.Fprintf(w, "READ\n")
		default: // a MULTI/EXEC transfer-style transaction
			if err := drainWindow(); err != nil {
				return err
			}
			n := 2 + rng.Intn(3)
			txops := make([]core.TxnOp, n)
			delta := int64(1 + rng.Intn(4))
			for i := range txops {
				k := keys[rng.Intn(len(keys))]
				switch i {
				case 0:
					txops[i] = core.TxnOp{Act: "incr", K: k, V: -delta}
				case 1:
					txops[i] = core.TxnOp{Act: "incr", K: k, V: delta}
				default:
					switch rng.Intn(3) {
					case 0:
						txops[i] = core.TxnOp{Act: "get", K: k}
					case 1:
						txops[i] = core.TxnOp{Act: "read"}
					default:
						txops[i] = core.TxnOp{Act: "incr", K: k, V: int64(rng.Intn(3))}
					}
				}
			}
			pend := rec.Call(me, "exec", core.TxnExecInput{Ops: txops})
			fmt.Fprintf(w, "MULTI\n")
			for _, op := range txops {
				switch op.Act {
				case "incr":
					fmt.Fprintf(w, "HINCR %s %d\n", op.K, op.V)
				case "get":
					fmt.Fprintf(w, "HGET %s\n", op.K)
				case "read":
					fmt.Fprintf(w, "READ\n")
				}
			}
			fmt.Fprintf(w, "EXEC\n")
			if err := w.Flush(); err != nil {
				return err
			}
			conn.SetReadDeadline(time.Now().Add(20 * time.Second))
			if err := expectLine("OK"); err != nil {
				return fmt.Errorf("MULTI: %w", err)
			}
			for i := 0; i < n; i++ {
				if err := expectLine("+QUEUED"); err != nil {
					return fmt.Errorf("staged %d: %w", i, err)
				}
			}
			if err := expectLine("*" + strconv.Itoa(n)); err != nil {
				return fmt.Errorf("EXEC array: %w", err)
			}
			outs := make([]any, n)
			for i, op := range txops {
				out, err := readReply(op.Act)
				if err != nil {
					return fmt.Errorf("EXEC reply %d: %w", i, err)
				}
				outs[i] = out
			}
			pend.Done(outs)
		}
	}
	return drainWindow()
}

// testServerLinearizableTxn records concurrent transactional and plain
// histories through a live server and checks them against the atomic
// multi-key TxnModel, with the budget-and-re-record discipline of the
// other server harnesses.
func testServerLinearizableTxn(t *testing.T, opts Options, keys []string) {
	const rounds, perRound, opsEach = 6, 2, 85 // 12 clients, 1020-op histories
	depths := []int{1, 3}
	const budget = 2_000_000
	const attempts = 6

	for attempt := 1; attempt <= attempts; attempt++ {
		srv := startServer(t, opts) // fresh keyspace: model starts empty
		rec := core.NewRecorder()

		for r := 0; r < rounds && !t.Failed(); r++ {
			var wg sync.WaitGroup
			for j := 0; j < perRound; j++ {
				id := r*perRound + j
				wg.Add(1)
				go func(id, depth int) {
					defer wg.Done()
					err := txnHistoryClient(srv.Addr().String(), rec, core.ThreadID(id),
						keys, depth, opsEach, id)
					if err != nil {
						t.Errorf("client %d: %v", id, err)
					}
				}(id, depths[j])
			}
			wg.Wait()
		}
		if t.Failed() {
			return
		}

		h := rec.History()
		if len(h) < 1000 {
			t.Fatalf("txn: history has %d ops, want >= 1000", len(h))
		}
		res := core.CheckBudget(core.TxnModel(), h, budget)
		switch {
		case res.Exhausted:
			t.Logf("txn: attempt %d/%d exhausted the %d-step budget on %d ops; re-recording",
				attempt, attempts, budget, len(h))
		case !res.Linearizable:
			t.Fatalf("txn: %d-op server history is not linearizable", len(h))
		default:
			return // linearizable, witness found
		}
	}
	t.Fatalf("txn: checker budget exhausted on %d consecutive recordings", attempts)
}

// TestServerLinearizableTxn is the acceptance harness: concurrent
// MULTI/EXEC transfers interleaved with plain HGET/HSET/HDEL/HINCR and
// INC/READ on the same keys, across at least two shards, for TL2 and
// DSTM under two contention managers.
func TestServerLinearizableTxn(t *testing.T) {
	const shards = 4
	keys := multiShardKeys(t, shards, []string{"alpha", "beta", "gamma", "delta", "epsilon"})
	for _, m := range txnMatrix {
		t.Run(m.engine+"/"+m.cm, func(t *testing.T) {
			testServerLinearizableTxn(t, Options{Shards: shards, Txn: m.engine, CM: m.cm}, keys)
		})
	}
}

// TestTxnMidMultiDisconnect is the teardown regression test: dropping a
// connection mid-MULTI (and shutting the server down on the force path
// with windows still open) must not leak goroutines, staged buffers, or
// keyspace locks — later transactions on the same keys must commit.
func TestTxnMidMultiDisconnect(t *testing.T) {
	before := runtime.NumGoroutine()

	srv, err := New(Options{Shards: 4})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve() }()
	addr := srv.Addr().String()

	// Several clients abandon open MULTI windows with staged commands.
	for i := 0; i < 5; i++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		r := bufio.NewReader(conn)
		fmt.Fprintf(conn, "MULTI\nHINCR shared:a 5\nHINCR shared:b -5\n")
		for _, want := range []string{"OK", "+QUEUED", "+QUEUED"} {
			line, err := r.ReadString('\n')
			if err != nil || strings.TrimSuffix(line, "\n") != want {
				t.Fatalf("reply = %q (%v), want %q", line, err, want)
			}
		}
		conn.Close() // mid-transaction: the staged buffer dies with the conn
	}

	// A fresh connection must find the keys untouched and lock-free:
	// a transaction over the same keys commits promptly.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	r := bufio.NewReader(conn)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	fmt.Fprintf(conn, "HGET shared:a\nMULTI\nHINCR shared:a 1\nHINCR shared:b -1\nEXEC\n")
	for i, want := range []string{"EMPTY", "OK", "+QUEUED", "+QUEUED", "*2", "1", "-1"} {
		line, err := r.ReadString('\n')
		if err != nil || strings.TrimSuffix(line, "\n") != want {
			t.Fatalf("reply %d = %q (%v), want %q", i, line, err, want)
		}
	}

	// Leave this connection mid-MULTI and take the shutdown force path
	// (expired context): the drain must still complete.
	fmt.Fprintf(conn, "MULTI\nHINCR shared:a 1\n")
	for _, want := range []string{"OK", "+QUEUED"} {
		line, err := r.ReadString('\n')
		if err != nil || strings.TrimSuffix(line, "\n") != want {
			t.Fatalf("reply = %q (%v), want %q", line, err, want)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired: Shutdown takes the force path unless the
	// conn goroutine wins the race and drains first — both must be clean.
	if err := srv.Shutdown(ctx); err != nil {
		t.Logf("Shutdown took the force path: %v", err)
	}
	conn.Close()
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve: %v", err)
	}

	// All server goroutines (acceptor, conns, shards) must be gone.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: before=%d after=%d\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
