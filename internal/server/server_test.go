package server

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"amp/internal/core"
	"amp/internal/mailbox"
)

// startServer boots a server on a loopback ephemeral port and registers a
// cleanup shutdown.
func startServer(t *testing.T, opts Options) *Server {
	t.Helper()
	srv, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve() }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		if err := <-serveErr; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return srv
}

// client is a line-oriented test client.
type client struct {
	conn net.Conn
	r    *bufio.Reader
}

func dial(t *testing.T, srv *Server) *client {
	t.Helper()
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	return &client{conn: conn, r: bufio.NewReader(conn)}
}

// cmd sends one command and returns the reply line.
func (c *client) cmd(t *testing.T, line string) string {
	t.Helper()
	if _, err := fmt.Fprintf(c.conn, "%s\n", line); err != nil {
		t.Fatalf("write %q: %v", line, err)
	}
	return c.readLine(t)
}

func (c *client) readLine(t *testing.T) string {
	t.Helper()
	c.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	reply, err := c.r.ReadString('\n')
	if err != nil {
		t.Fatalf("read reply: %v", err)
	}
	return strings.TrimSuffix(reply, "\n")
}

// expect asserts one command/reply pair.
func (c *client) expect(t *testing.T, line, want string) {
	t.Helper()
	if got := c.cmd(t, line); got != want {
		t.Fatalf("%q → %q, want %q", line, got, want)
	}
}

func TestServeAllFamilies(t *testing.T) {
	srv := startServer(t, Options{Shards: 4})
	c := dial(t, srv)

	c.expect(t, "PING", "PONG")

	// Set family.
	c.expect(t, "SET 42", "1")
	c.expect(t, "SET 42", "0")
	c.expect(t, "GET 42", "1")
	c.expect(t, "GET 7", "0")
	c.expect(t, "DEL 42", "1")
	c.expect(t, "DEL 42", "0")
	c.expect(t, "GET 42", "0")

	// Stack family (LIFO).
	c.expect(t, "PUSH 1", "OK")
	c.expect(t, "PUSH 2", "OK")
	c.expect(t, "POP", "2")
	c.expect(t, "POP", "1")
	c.expect(t, "POP", "EMPTY")

	// Queue family (FIFO).
	c.expect(t, "ENQ 10", "OK")
	c.expect(t, "ENQ 20", "OK")
	c.expect(t, "DEQ", "10")
	c.expect(t, "DEQ", "20")
	c.expect(t, "DEQ", "EMPTY")

	// Counter family.
	c.expect(t, "INC", "0")
	c.expect(t, "INC", "1")
	c.expect(t, "READ", "2")

	// Priority-queue family.
	c.expect(t, "PQADD 5", "OK")
	c.expect(t, "PQADD 3", "OK")
	c.expect(t, "PQADD 9", "OK")
	c.expect(t, "PQMIN", "3")
	c.expect(t, "PQMIN", "5")
	c.expect(t, "PQMIN", "9")
	c.expect(t, "PQMIN", "EMPTY")

	// Errors keep the connection usable.
	c.expect(t, "FROB", `ERR unknown command "FROB"`)
	c.expect(t, "SET", "ERR SET needs exactly one integer argument")
	c.expect(t, "SET x", `ERR bad integer "x"`)
	c.expect(t, "SET -9223372036854775808", "ERR key -9223372036854775808 is reserved")
	c.expect(t, "GET 7", "0")

	c.expect(t, "QUIT", "OK")
}

// TestBackendMatrix boots one server per backend name of every family and
// exercises that family, so each flaggable implementation is covered.
func TestBackendMatrix(t *testing.T) {
	exercise := map[string]func(t *testing.T, c *client){
		"set": func(t *testing.T, c *client) {
			c.expect(t, "SET 11", "1")
			c.expect(t, "GET 11", "1")
			c.expect(t, "DEL 11", "1")
			c.expect(t, "GET 11", "0")
		},
		"map": func(t *testing.T, c *client) {
			c.expect(t, "HSET k 7", "1")
			c.expect(t, "HSET k 8", "0")
			c.expect(t, "HGET k", "8")
			c.expect(t, "HDEL k", "1")
			c.expect(t, "HGET k", "EMPTY")
		},
		"queue": func(t *testing.T, c *client) {
			c.expect(t, "ENQ 1", "OK")
			c.expect(t, "ENQ 2", "OK")
			c.expect(t, "DEQ", "1")
			c.expect(t, "DEQ", "2")
			c.expect(t, "DEQ", "EMPTY")
		},
		"stack": func(t *testing.T, c *client) {
			c.expect(t, "PUSH 1", "OK")
			c.expect(t, "PUSH 2", "OK")
			c.expect(t, "POP", "2")
			c.expect(t, "POP", "1")
		},
		"pqueue": func(t *testing.T, c *client) {
			c.expect(t, "PQADD 8", "OK")
			c.expect(t, "PQADD 2", "OK")
			c.expect(t, "PQMIN", "2")
			c.expect(t, "PQMIN", "8")
		},
		"counter": func(t *testing.T, c *client) {
			c.expect(t, "INC", "0")
			c.expect(t, "INC", "1")
			c.expect(t, "READ", "2")
		},
	}
	families := map[string][]string{
		"set":     SetBackends(),
		"map":     MapBackends(),
		"queue":   QueueBackends(),
		"stack":   StackBackends(),
		"pqueue":  PQueueBackends(),
		"counter": CounterBackends(),
	}
	for family, names := range families {
		for _, name := range names {
			t.Run(family+"/"+name, func(t *testing.T) {
				opts := Options{Shards: 2}
				// The txn keyspace would absorb the map and counter
				// families; turn it off so the named backend is the one
				// actually exercised.
				opts.Txn = "off"
				switch family {
				case "set":
					opts.Set = name
				case "map":
					opts.Map = name
				case "queue":
					opts.Queue = name
				case "stack":
					opts.Stack = name
				case "pqueue":
					opts.PQueue = name
				case "counter":
					opts.Counter = name
				}
				srv := startServer(t, opts)
				c := dial(t, srv)
				exercise[family](t, c)
			})
		}
	}
}

func TestMetricsCounterBackends(t *testing.T) {
	for _, name := range CounterBackends() {
		t.Run(name, func(t *testing.T) {
			srv := startServer(t, Options{Shards: 2, MetricsCounter: name})
			c := dial(t, srv)
			c.expect(t, "SET 5", "1")
			stats := c.cmd(t, "STATS")
			body := readStats(t, c, stats)
			if !strings.Contains(body, "op set.add count=1") {
				t.Fatalf("STATS missing set.add count:\n%s", body)
			}
		})
	}
}

// readStats consumes a STATS body whose first line is already read.
func readStats(t *testing.T, c *client, first string) string {
	t.Helper()
	var sb strings.Builder
	line := first
	for line != "END" {
		sb.WriteString(line)
		sb.WriteByte('\n')
		line = c.readLine(t)
	}
	return sb.String()
}

func TestUnknownBackend(t *testing.T) {
	for _, opts := range []Options{
		{Set: "nope"}, {Map: "nope"}, {Queue: "nope"}, {Stack: "nope"},
		{PQueue: "nope"}, {Counter: "nope"}, {MetricsCounter: "nope"},
		{Txn: "nope"}, {CM: "nope"},
	} {
		if _, err := New(opts); err == nil || !strings.Contains(err.Error(), `"nope"`) {
			t.Errorf("New(%+v) error = %v, want unknown-backend error", opts, err)
		}
	}
}

// TestPerKeyLinearizable runs concurrent clients on disjoint key ranges;
// on disjoint keys every client must observe strictly sequential set
// semantics regardless of interleaving with other clients.
func TestPerKeyLinearizable(t *testing.T) {
	srv := startServer(t, Options{Shards: 4})
	const clients, keysEach, rounds = 8, 16, 10

	var wg sync.WaitGroup
	for id := 0; id < clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := dial(t, srv)
			base := 1_000_000 * (id + 1)
			for r := 0; r < rounds; r++ {
				for k := base; k < base+keysEach; k++ {
					key := strconv.Itoa(k)
					c.expect(t, "GET "+key, "0")
					c.expect(t, "SET "+key, "1")
					c.expect(t, "SET "+key, "0")
					c.expect(t, "GET "+key, "1")
					c.expect(t, "DEL "+key, "1")
					c.expect(t, "DEL "+key, "0")
				}
			}
		}(id)
	}
	wg.Wait()
}

// TestCounterTickets checks that concurrent INCs hand out unique tickets
// and READ converges on the total.
func TestCounterTickets(t *testing.T) {
	// Txn off: INC must be served by the combining tree under test, not
	// absorbed by the transactional keyspace.
	srv := startServer(t, Options{Shards: 4, Counter: "combining", Txn: "off"})
	const clients, each = 8, 200

	results := make(chan int64, clients*each)
	var wg sync.WaitGroup
	for id := 0; id < clients; id++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := dial(t, srv)
			for i := 0; i < each; i++ {
				v, err := strconv.ParseInt(c.cmd(t, "INC"), 10, 64)
				if err != nil {
					t.Errorf("INC reply not an integer: %v", err)
					return
				}
				results <- v
			}
		}()
	}
	wg.Wait()
	close(results)

	seen := make(map[int64]bool)
	for v := range results {
		if seen[v] {
			t.Fatalf("duplicate ticket %d", v)
		}
		seen[v] = true
	}
	if len(seen) != clients*each {
		t.Fatalf("got %d unique tickets, want %d", len(seen), clients*each)
	}
	c := dial(t, srv)
	if got := c.cmd(t, "READ"); got != strconv.Itoa(clients*each) {
		t.Fatalf("READ = %s, want %d", got, clients*each)
	}
}

// TestQueueMultiset checks that concurrently enqueued values are dequeued
// exactly once each.
func TestQueueMultiset(t *testing.T) {
	srv := startServer(t, Options{Shards: 4, Queue: "lockfree"})
	const clients, each = 6, 100

	var wg sync.WaitGroup
	for id := 0; id < clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := dial(t, srv)
			for i := 0; i < each; i++ {
				c.expect(t, fmt.Sprintf("ENQ %d", id*each+i), "OK")
			}
		}(id)
	}
	wg.Wait()

	c := dial(t, srv)
	seen := make(map[string]bool)
	for i := 0; i < clients*each; i++ {
		v := c.cmd(t, "DEQ")
		if v == "EMPTY" || seen[v] {
			t.Fatalf("dequeue %d: got %q (duplicate or premature empty)", i, v)
		}
		seen[v] = true
	}
	c.expect(t, "DEQ", "EMPTY")
}

func TestBoundedQueueFull(t *testing.T) {
	srv := startServer(t, Options{Shards: 2, Queue: "recycling", QueueCapacity: 4})
	c := dial(t, srv)
	for i := 0; i < 4; i++ {
		c.expect(t, fmt.Sprintf("ENQ %d", i), "OK")
	}
	c.expect(t, "ENQ 99", "FULL")
	c.expect(t, "DEQ", "0")
	c.expect(t, "ENQ 99", "OK")
}

func TestPQueueRange(t *testing.T) {
	srv := startServer(t, Options{Shards: 2, PQueue: "linear", PQCapacity: 8})
	c := dial(t, srv)
	c.expect(t, "PQADD 7", "OK")
	c.expect(t, "PQMIN", "7")
	if got := c.cmd(t, "PQADD 8"); !strings.HasPrefix(got, "ERR") {
		t.Fatalf("PQADD 8 = %q, want ERR (range is [0,8))", got)
	}
}

func TestStatsCounts(t *testing.T) {
	srv := startServer(t, Options{Shards: 2})
	c := dial(t, srv)
	c.expect(t, "SET 1", "1")
	c.expect(t, "SET 2", "1")
	c.expect(t, "GET 1", "1")
	c.expect(t, "HSET k 5", "1")
	c.expect(t, "HGET k", "5")
	c.expect(t, "HGET nope", "EMPTY")
	c.expect(t, "HDEL k", "1")
	c.expect(t, "PUSH 3", "OK")
	c.expect(t, "INC", "0")

	// Default options: striped set (no bypass — GET rides the mailbox,
	// counted under set.contains and read.mailbox) and txn=tl2 (HGET
	// bypasses via the keyspace, counted under read.bypass, not map.get).
	body := readStats(t, c, c.cmd(t, "STATS"))
	for _, want := range []string{
		"shards 2",
		"backend set=striped map=keyspace queue=unbounded stack=treiber pqueue=skip counter=keyspace",
		"read-bypass set=off map=on",
		"op set.add count=2",
		"op set.contains count=1",
		"op map.set count=1",
		"op map.get count=0",
		"op map.del count=1",
		"op stack.push count=1",
		"op counter.inc count=1",
		"op queue.enq count=0",
		"op read.bypass count=2",
		"op read.mailbox count=1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("STATS missing %q:\n%s", want, body)
		}
	}
}

// TestStatsCountsBypassOff proves the -read-bypass=off escape hatch: the
// same traffic with the bypass disabled routes every read through the
// shard mailboxes, restoring the per-op registry counts.
func TestStatsCountsBypassOff(t *testing.T) {
	srv := startServer(t, Options{Shards: 2, ReadBypass: "off"})
	c := dial(t, srv)
	c.expect(t, "SET 1", "1")
	c.expect(t, "GET 1", "1")
	c.expect(t, "HSET k 5", "1")
	c.expect(t, "HGET k", "5")
	c.expect(t, "HGET nope", "EMPTY")

	body := readStats(t, c, c.cmd(t, "STATS"))
	for _, want := range []string{
		"read-bypass set=off map=off",
		"op set.contains count=1",
		"op map.get count=2",
		"op read.bypass count=0",
		"op read.mailbox count=3",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("STATS missing %q:\n%s", want, body)
		}
	}
}

// TestPipelinedConnection writes a whole script of commands in one
// burst and checks every reply, in order. On a single connection runs
// are submitted to the shards one at a time, so program order — and
// with it sequential semantics — is preserved even though the commands
// span every family, several shards, parse errors, and control ops.
func TestPipelinedConnection(t *testing.T) {
	srv := startServer(t, Options{Shards: 4})
	c := dial(t, srv)
	script := "SET 1\nGET 1\nENQ 7\nPUSH 3\nINC\nENQ 8\nDEQ\nDEQ\nDEQ\nPOP\n" +
		"FROB\nPING\nREAD\nSET -9223372036854775808\nGET 1\n"
	want := []string{
		"1", "1", "OK", "OK", "0", "OK", "7", "8", "EMPTY", "3",
		`ERR unknown command "FROB"`, "PONG", "1",
		"ERR key -9223372036854775808 is reserved", "1",
	}
	if _, err := c.conn.Write([]byte(script)); err != nil {
		t.Fatalf("write: %v", err)
	}
	for i, w := range want {
		if got := c.readLine(t); got != w {
			t.Fatalf("reply %d = %q, want %q", i, got, w)
		}
	}
}

// TestPipelinedBulk pushes a batch far larger than maxBatch through one
// connection and checks one reply per command, in order, plus the
// batch-size histogram having recorded combined runs.
func TestPipelinedBulk(t *testing.T) {
	srv := startServer(t, Options{Shards: 4})
	c := dial(t, srv)
	const n = 1000
	var sb strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "SET %d\n", i)
	}
	if _, err := c.conn.Write([]byte(sb.String())); err != nil {
		t.Fatalf("write: %v", err)
	}
	for i := 0; i < n; i++ {
		if got := c.readLine(t); got != "1" {
			t.Fatalf("SET %d → %q, want 1", i, got)
		}
	}
	c.expect(t, "GET 500", "1")

	// The STATS contract: the rows go run ./benchmark parses out of a
	// default-flag server (benchmark/serverproc.go), batch-size histogram
	// included. Each must open a line, byte for byte.
	body := readStats(t, c, c.cmd(t, "STATS"))
	for _, row := range []string{
		`backend set=striped map=keyspace queue=\S+ stack=\S+ pqueue=\S+ counter=keyspace metrics-counter=\S+$`,
		`txn engine=tl2 cm=\S+$`,
		`read-bypass set=off map=on$`,
		`op read\.bypass count=0$`,
		`op read\.mailbox count=1$`,
		`op shard\.combine\.caller count=\d+$`,
		`op shard\.combine\.shard count=\d+$`,
		`op shard\.spin count=\d+$`,
		`op shard\.park count=\d+$`,
		`hist shard\.batch count=[1-9]\d* sum=1001 `,
	} {
		if !regexp.MustCompile(`(?m)^` + row).MatchString(body) {
			t.Errorf("STATS has no line matching %q", row)
		}
	}
	// ... and no kind of line beyond the ones a default-flag server has
	// always printed.
	if stray := regexp.MustCompile(`(?m)^(?:shards|backend|snap|txn|read-bypass|mailbox|hist|op) .*\n`).ReplaceAllString(body, ""); stray != "" {
		t.Errorf("STATS has lines of an unknown kind:\n%s", stray)
	}
	if t.Failed() {
		t.Logf("STATS:\n%s", body)
	}
}

// TestPipelinedSubmitAbortUnblocks is the regression test for the
// unbounded-wait footgun: a connection goroutine backing off against a
// full shard mailbox must give up once the engine aborts, instead of
// deadlocking a draining server.
func TestPipelinedSubmitAbortUnblocks(t *testing.T) {
	e := &engine{}
	const depth = 2
	s := &shard{mbox: mailbox.New[*batch](depth, 0)}
	e.all = []*shard{s}
	for i := 0; i < depth; i++ {
		s.mbox.PutQuiet(&batch{}) // saturate the mailbox; nothing drains it
	}

	res := make(chan bool, 1)
	go func() { res <- s.mbox.PutQuiet(&batch{}) }()
	select {
	case <-res:
		t.Fatal("submit returned while the shard queue was full")
	case <-time.After(50 * time.Millisecond):
	}

	e.abort()
	select {
	case ok := <-res:
		if ok {
			t.Fatal("submit reported success after abort")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("submit still blocked after abort: a draining server would deadlock")
	}
}

// TestPeerCloseMidPipelineEndsHandler: replies are written without
// checking each write — the per-batch Flush reports the first failure —
// so a peer that resets its connection with a deep pipeline in flight,
// most of it unanswered, must still end its handler goroutine promptly,
// with no Shutdown to wake it.
func TestPeerCloseMidPipelineEndsHandler(t *testing.T) {
	srv := startServer(t, Options{Shards: 2})
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	// Far more reply bytes than the socket buffers hold, never read: the
	// handler ends up blocked in Flush with the rest of the pipeline queued.
	go io.WriteString(conn, strings.Repeat("SET 1\nSTATS\nGET 1\n", 20000)) // fails at the Close below
	if _, err := bufio.NewReader(conn).ReadString('\n'); err != nil {
		t.Fatalf("first reply: %v", err)
	}
	conn.(*net.TCPConn).SetLinger(0) // close with a reset, unread replies and all
	conn.Close()

	drained := make(chan struct{})
	go func() { srv.connWG.Wait(); close(drained) }()
	select {
	case <-drained:
	case <-time.After(5 * time.Second):
		t.Fatal("the handler goroutine outlived its peer")
	}
}

// historyClient replays add/take traffic over one pipelined connection,
// recording every operation in rec: Call when the command is sent, Done
// when its reply is read. Goroutine-safe (returns errors, no t.Fatal).
func historyClient(addr string, rec *core.Recorder, me core.ThreadID,
	addVerb, takeVerb, addAct, takeAct string, depth, ops, id int) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)

	type sent struct {
		pend *core.PendingOp
		take bool
	}
	window := make([]sent, 0, depth)
	for next := 0; next < ops; {
		window = window[:0]
		for next < ops && len(window) < depth {
			if next%2 == 0 {
				v := id*100_000 + next
				window = append(window, sent{pend: rec.Call(me, addAct, v)})
				fmt.Fprintf(w, "%s %d\n", addVerb, v)
			} else {
				window = append(window, sent{pend: rec.Call(me, takeAct, nil), take: true})
				fmt.Fprintf(w, "%s\n", takeVerb)
			}
			next++
		}
		if err := w.Flush(); err != nil {
			return err
		}
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		for _, s := range window {
			line, err := r.ReadString('\n')
			if err != nil {
				return err
			}
			line = strings.TrimSuffix(line, "\n")
			switch {
			case !s.take:
				if line != "OK" {
					return fmt.Errorf("%s reply %q, want OK", addVerb, line)
				}
				s.pend.Done(nil)
			case line == "EMPTY":
				s.pend.Done(core.Empty)
			default:
				v, err := strconv.Atoi(line)
				if err != nil {
					return fmt.Errorf("%s reply %q, want integer or EMPTY", takeVerb, line)
				}
				s.pend.Done(v)
			}
		}
	}
	return nil
}

// testServerLinearizable records a concurrent history through a live
// pipelined server — many clients, mixed pipeline depths — and checks
// it against the sequential model with the cmd/linearize checker.
//
// The Wing & Gong search cost grows steeply with the number of
// operation windows that overlap at once, and an unlucky schedule
// (particularly under -race, which stretches windows) can push a
// perfectly legal history past any fixed budget. An exhausted search
// proves nothing either way, so the test bounds each check and
// re-records a fresh history instead of hanging; only a decided
// non-linearizable verdict fails immediately.
func testServerLinearizable(t *testing.T, opts Options, model core.Model, addVerb, takeVerb, addAct, takeAct string) {
	// Twelve clients in rounds of two concurrent connections with mixed
	// pipeline depths 1 and 3. Verifying queue linearizability is
	// exponential in the number of simultaneously open operations
	// (search cost ≈ history length × 2^overlap × overlap, and FIFO
	// order is only pinned retroactively by dequeues), so the harness
	// bounds the overlap by construction — at most 1+3 = 4 windows open
	// at once — rather than hoping the scheduler keeps the search
	// tractable. The joined rounds are quiescent cuts that decompose the
	// search; the history itself is still one 1000+-op concurrent
	// recording through live pipelined connections.
	const rounds, perRound, opsEach = 6, 2, 85 // 12 clients, 1020-op histories
	depths := []int{1, 3}
	const budget = 2_000_000
	const attempts = 6

	for attempt := 1; attempt <= attempts; attempt++ {
		srv := startServer(t, opts) // fresh structures: model starts empty
		rec := core.NewRecorder()

		for r := 0; r < rounds && !t.Failed(); r++ {
			var wg sync.WaitGroup
			for j := 0; j < perRound; j++ {
				id := r*perRound + j
				wg.Add(1)
				go func(id, depth int) {
					defer wg.Done()
					err := historyClient(srv.Addr().String(), rec, core.ThreadID(id),
						addVerb, takeVerb, addAct, takeAct, depth, opsEach, id)
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
			t.Fatalf("history has %d ops, want >= 1000", len(h))
		}
		res := core.CheckBudget(model, h, budget)
		switch {
		case res.Exhausted:
			t.Logf("%s: attempt %d/%d exhausted the %d-step budget on %d ops; re-recording",
				model.Name, attempt, attempts, budget, len(h))
		case !res.Linearizable:
			t.Fatalf("%s: %d-op server history is not linearizable", model.Name, len(h))
		default:
			return // linearizable, witness found
		}
	}
	t.Fatalf("%s: checker budget exhausted on %d consecutive recordings", model.Name, attempts)
}

// TestServerLinearizableQueue checks ENQ/DEQ histories recorded through
// the pipelined server against the FIFO queue model.
func TestServerLinearizableQueue(t *testing.T) {
	testServerLinearizable(t, Options{Shards: 4}, core.QueueModel(), "ENQ", "DEQ", "enq", "deq")
}

// TestServerLinearizableQueueEpoch runs the same harness against the
// epoch-recycled Michael–Scott backend: node reuse must never produce a
// history the FIFO model rejects.
func TestServerLinearizableQueueEpoch(t *testing.T) {
	testServerLinearizable(t, Options{Shards: 4, Queue: "lockfree-epoch"},
		core.QueueModel(), "ENQ", "DEQ", "enq", "deq")
}

// TestServerLinearizableStack checks PUSH/POP histories recorded through
// the pipelined server against the LIFO stack model.
func TestServerLinearizableStack(t *testing.T) {
	testServerLinearizable(t, Options{Shards: 4}, core.StackModel(), "PUSH", "POP", "push", "pop")
}

// TestPartialReads feeds a pipelined pair of commands byte by byte; the
// framing layer must reassemble them.
func TestPartialReads(t *testing.T) {
	srv := startServer(t, Options{Shards: 2})
	c := dial(t, srv)
	for _, b := range []byte("SET 123\nGET 123\n") {
		if _, err := c.conn.Write([]byte{b}); err != nil {
			t.Fatalf("write: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	if got := c.readLine(t); got != "1" {
		t.Fatalf("SET 123 → %q, want 1", got)
	}
	if got := c.readLine(t); got != "1" {
		t.Fatalf("GET 123 → %q, want 1", got)
	}
}

// TestOversizedLine checks that a line the framing layer cannot buffer
// gets an error reply and a closed connection.
func TestOversizedLine(t *testing.T) {
	srv := startServer(t, Options{Shards: 2})
	c := dial(t, srv)
	long := "SET " + strings.Repeat("1", 4*MaxLineLen) + "\n"
	if _, err := c.conn.Write([]byte(long)); err != nil {
		t.Fatalf("write: %v", err)
	}
	if got := c.readLine(t); got != "ERR line too long" {
		t.Fatalf("reply = %q, want ERR line too long", got)
	}
	c.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.r.ReadString('\n'); err == nil {
		t.Fatal("connection still open after oversized line")
	}
}

func TestIdleTimeout(t *testing.T) {
	srv := startServer(t, Options{Shards: 2, IdleTimeout: 50 * time.Millisecond})
	c := dial(t, srv)
	c.expect(t, "PING", "PONG")
	c.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.r.ReadString('\n'); err == nil {
		t.Fatal("idle connection not closed")
	}
}

// TestSlowReaderIsDropped: a client that pipelines and never reads its
// replies stalls the server's write once the socket buffers fill. The
// connection deadline must cover that write too, so the goroutine gives
// the connection up within IdleTimeout instead of blocking in Flush forever.
func TestSlowReaderIsDropped(t *testing.T) {
	srv := startServer(t, Options{Shards: 2, IdleTimeout: 200 * time.Millisecond})
	c := dial(t, srv)
	tracked := func() int {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return len(srv.conns)
	}
	c.expect(t, "PING", "PONG")
	if n := tracked(); n != 1 {
		t.Fatalf("tracked connections = %d, want 1", n)
	}

	// Stream STATS (a multi-line reply per six-byte request) and never
	// read. The writer stops when the server drops the connection, or when
	// its own send buffer fills behind a server that stopped reading.
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		lines := bytes.Repeat([]byte("STATS\n"), 512)
		for {
			c.conn.SetWriteDeadline(time.Now().Add(time.Second))
			if _, err := c.conn.Write(lines); err != nil {
				return
			}
		}
	}()

	for deadline := time.Now().Add(5 * time.Second); tracked() != 0; {
		if time.Now().After(deadline) {
			t.Fatalf("tracked connections = %d after 5s, want 0: a never-reading client pins its goroutine", tracked())
		}
		time.Sleep(10 * time.Millisecond)
	}
	<-stopped // a write into the dropped connection fails, or hits its 1 s deadline
}

// TestGracefulShutdown drives traffic from several clients, shuts the
// server down mid-stream, and checks that no goroutines leak.
func TestGracefulShutdown(t *testing.T) {
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

	// Clients hammer until their connection dies.
	var wg sync.WaitGroup
	for id := 0; id < 4; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", srv.Addr().String())
			if err != nil {
				return
			}
			defer conn.Close()
			r := bufio.NewReader(conn)
			for i := 0; ; i++ {
				if _, err := fmt.Fprintf(conn, "SET %d\n", id*1000+i); err != nil {
					return
				}
				conn.SetReadDeadline(time.Now().Add(2 * time.Second))
				if _, err := r.ReadString('\n'); err != nil {
					return
				}
			}
		}(id)
	}
	time.Sleep(50 * time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	wg.Wait()

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

	// Shutdown is idempotent.
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
}

// TestShutdownForcePathSaturatedRing wedges the sole shard's combiner
// mid-command so that subsequent submitters fill the mailbox to capacity
// and overflow into the producer backoff, then drives Shutdown's force
// path (an already-short drain deadline). The force path must abort the
// mailbox — unblocking every producer backing off against it — and once
// the wedge releases, every batch already accepted must still be drained
// and answered: no conn goroutine may be left waiting on a reply, which
// the goroutine-leak check below would catch, and the shard goroutines
// must all exit.
func TestShutdownForcePathSaturatedRing(t *testing.T) {
	before := runtime.NumGoroutine()

	srv, err := New(Options{Shards: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve() }()

	// The wedge: the first SET 424242 parks its combining goroutine (the
	// submitting connection itself, holding the combiner lock) until the
	// test releases it. Installed before any traffic.
	entered := make(chan struct{})
	release := make(chan struct{})
	var wedged sync.Once
	srv.eng.applyHook = func(cmd Command) {
		if cmd.Op == OpSet && cmd.Arg == 424242 {
			wedged.Do(func() {
				entered <- struct{}{}
				<-release
			})
		}
	}

	wedgeConn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer wedgeConn.Close()
	if _, err := wedgeConn.Write([]byte("SET 424242\n")); err != nil {
		t.Fatalf("write: %v", err)
	}
	<-entered // combiner lock held, nothing will drain the mailbox

	// Saturate: more single-batch connections than the mailbox holds, so the
	// overflow parks inside the producer backoff. Every client must
	// eventually unblock — with a reply or a dead socket, never a hang.
	const clients = shardQueueDepth + 24
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", srv.Addr().String())
			if err != nil {
				return
			}
			defer conn.Close()
			fmt.Fprintf(conn, "SET %d\n", i)
			conn.SetReadDeadline(time.Now().Add(10 * time.Second))
			bufio.NewReader(conn).ReadString('\n')
		}(i)
	}
	time.Sleep(300 * time.Millisecond) // let the mailbox fill and producers back off

	// Force path: the deadline is far shorter than the wedge, so the
	// drain expires, abort closes the mailboxes, and the parked producers
	// give up while the wedge is still in place.
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	shutdownErr := make(chan error, 1)
	go func() { shutdownErr <- srv.Shutdown(ctx) }()
	time.Sleep(400 * time.Millisecond) // deadline expired, abort fired
	close(release)

	if err := <-shutdownErr; err == nil || !strings.Contains(err.Error(), "drain expired") {
		t.Fatalf("Shutdown = %v, want drain-expired error", err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	wg.Wait()

	// Every accepted batch was answered (a dropped reply would leave its
	// connection goroutine parked on the reply channel forever) and the
	// shard goroutines are gone.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: before=%d after=%d\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}

	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
}

// TestShutdownUnserved: a server that never served must still stop its
// shard goroutines.
func TestShutdownUnserved(t *testing.T) {
	srv, err := New(Options{Shards: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}
