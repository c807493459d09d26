// The network front-end: accept loop, per-connection pipelined
// read/parse/execute/write loop (parse ahead, batch per shard, flush per
// batch), and graceful shutdown (stop accepting, wake idle readers,
// finish in-flight commands, then force-close stragglers and stop the
// shards).
//
// Reads have a second path. When the selected backend's reads are safe
// from any goroutine (lock-free set backends, the epoch map, or the
// transactional keyspace), GET and HGET skip the shard mailbox entirely
// and execute on the connection goroutine — the read bypass. It is
// mailbox-free everywhere. It is wait-free on the lockfree, list-epoch
// and skip-epoch sets and the epoch map (a pointer chase under an epoch
// pin). On the keyspace — every HGET under the default -txn tl2 — it is a
// reader lock on the key directory (txn/dir.go's striped RWMutex, which
// a key's first creation holds exclusively) and then one atomic tvar
// load: reader-locked until the directory item lands (ROADMAP).
// serveBatch keeps program order by flushing (and awaiting) the open
// mailbox run before serving such a read in place, so a read never
// overtakes the connection's own earlier writes, and reply order stays
// line order by construction. Reads staged inside a MULTI window, reads
// on backends without the capability, and everything under
// -read-bypass=off ride the mailbox as before. STATS splits the traffic
// in the `op read.bypass` / `op read.mailbox` rows.
package server

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"time"

	"amp/internal/metrics"
	"amp/internal/snapshot"
	"amp/internal/txn"
)

// Server is the ampserved TCP server. Construct with New, then Listen and
// Serve (or ListenAndServe); always Shutdown, even if Serve was never
// called, to stop the shard goroutines.
type Server struct {
	opts Options
	eng  *engine

	ln       net.Listener
	mu       sync.Mutex
	conns    map[net.Conn]struct{}
	connWG   sync.WaitGroup
	done     chan struct{}
	shutdown sync.Once
}

// New builds the data plane (validating backend names) and starts the
// shard goroutines.
func New(opts Options) (*Server, error) {
	opts = opts.withDefaults()
	eng, err := newEngine(opts)
	if err != nil {
		return nil, err
	}
	return &Server{
		opts:  eng.opts,
		eng:   eng,
		conns: make(map[net.Conn]struct{}),
		done:  make(chan struct{}),
	}, nil
}

// Options reports the defaulted configuration in effect; with the txn
// engine on, Map and Counter both read "keyspace", the structure serving.
func (s *Server) Options() Options { return s.opts }

// Stats returns the current per-op metrics snapshot.
func (s *Server) Stats() []metrics.OpStats { return s.eng.snapshot() }

// Restore replaces the server's entire logical state with the snapshot
// at path (see internal/snapshot for the format): the restart-with-
// restore entry point, typically called between New and Serve, but safe
// on a live server too — the load runs under the same full quiesce the
// RESTORE verb uses.
func (s *Server) Restore(path string) error {
	st, err := snapshot.Read(path)
	if err != nil {
		return err
	}
	return s.eng.loadSnapshot(st)
}

// Listen binds the TCP address (e.g. "127.0.0.1:0").
func (s *Server) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.ln = ln
	return nil
}

// Addr reports the bound address (nil before Listen).
func (s *Server) Addr() net.Addr {
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// ListenAndServe binds addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	if err := s.Listen(addr); err != nil {
		return err
	}
	return s.Serve()
}

// Serve accepts connections until the listener closes. It returns nil
// after Shutdown.
func (s *Server) Serve() error {
	if s.ln == nil {
		return errors.New("server: Serve before Listen")
	}
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.done:
				return nil
			default:
				return err
			}
		}
		if !s.track(conn) {
			conn.Close() // lost the race with Shutdown
			continue
		}
		s.connWG.Add(1)
		go s.handle(conn)
	}
}

// track registers a live connection; false once shutdown began.
func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case <-s.done:
		return false
	default:
	}
	s.conns[conn] = struct{}{}
	return true
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.conns, conn)
}

// maxBatch caps the commands a connection collects per parse-ahead
// round. It bounds per-connection memory and keeps one chatty pipeliner
// from monopolizing its shards for too long per wakeup.
const maxBatch = 128

// lineItem is one parsed line of a pipelined batch: a command, or the
// parse error to report in its place.
type lineItem struct {
	cmd Command
	err error
}

func parseItem(line []byte) lineItem {
	cmd, err := ParseCommand(line)
	return lineItem{cmd: cmd, err: err}
}

// txnState is one connection's MULTI window: the staged commands and
// whether a staging error has poisoned the window (EXEC then refuses).
// It lives on the connection goroutine and is reset on DISCARD, EXEC,
// QUIT and connection teardown — staged commands hold no engine
// resources (no tvar locks, no shard slots) until the EXEC commit runs,
// so dropping a connection mid-MULTI leaks nothing.
type txnState struct {
	active bool
	dirty  bool
	staged []Command
	// execTxn's scratch, reused from one EXEC to the next.
	ops     []txn.Op
	replies []reply
}

func (ts *txnState) reset() {
	ts.active = false
	ts.dirty = false
	ts.staged = ts.staged[:0]
}

// handle runs one connection's pipelined read/parse/execute/write loop:
// block for one line, parse ahead through everything the kernel already
// delivered, execute the whole batch as contiguous per-shard runs, and
// flush the replies once per batch instead of once per line. A client
// that never pipelines degenerates to the old per-line behavior; a
// pipelined client amortizes both syscalls and shard hops over the
// batch.
func (s *Server) handle(conn net.Conn) {
	defer s.connWG.Done()
	defer s.untrack(conn)
	defer conn.Close()

	// The reader holds one maximal line: MaxLineLen+1 bytes of content
	// (the old scanner's tolerance — ParseCommand still rejects anything
	// over MaxLineLen) plus the LF. A line that cannot fit surfaces as
	// bufio.ErrBufferFull and drops the connection.
	r := bufio.NewReaderSize(conn, MaxLineLen+2)
	w := bufio.NewWriter(conn)
	items := make([]lineItem, 0, maxBatch)
	ts := &txnState{}
	defer ts.reset() // drop a mid-MULTI buffer on any teardown path

	// One deadline guards both directions: a silent client fails the
	// blocking read, and a client that pipelines but never reads its
	// replies fails the write it stalls (a full bufio buffer mid-batch, or
	// the Flush below) instead of pinning this goroutine forever. It is
	// rearmed lazily: every SetDeadline is a runtime timer modification,
	// which at pipelined round-trip rates costs more than the I/O it
	// guards. Rearming only after a quarter of the idle budget has elapsed
	// keeps at least 3/4 of IdleTimeout armed ahead of any blocking read
	// or write while making the rearm cost amortize to nothing on a busy
	// connection. Shutdown still interrupts instantly: its
	// SetReadDeadline(now) on every tracked conn overrides whatever read
	// deadline was armed here.
	var armed time.Time
	for {
		select {
		case <-s.done:
			return
		default:
		}
		if now := time.Now(); now.Sub(armed) > s.opts.IdleTimeout/4 {
			conn.SetDeadline(now.Add(s.opts.IdleTimeout))
			armed = now
		}
		line, err := readLine(r)
		switch {
		case err == nil:
		case errors.Is(err, bufio.ErrBufferFull):
			// Framing is lost; report and drop the connection. Drain
			// the rest of the line first: closing with unread data
			// risks a TCP reset that could destroy the error reply in
			// flight.
			s.reply(w, reply{status: stErr, msg: ErrLineTooLong.Error()})
			w.Flush()
			drainLine(conn)
			return
		case errors.Is(err, io.EOF) && len(line) > 0:
			// Final line without a terminator: serve it, then close.
			s.serveBatch(w, append(items[:0], parseItem(line)), ts)
			w.Flush()
			return
		default:
			// Clean EOF, idle timeout (or the Shutdown wake), or a
			// transport error: drop silently.
			return
		}

		items = append(items[:0], parseItem(line))
		// Parse ahead: collect every complete line the kernel already
		// delivered, without blocking on the socket again. Peek only
		// inspects buffered bytes, so a partial trailing line stays for
		// the next round.
		for len(items) < maxBatch {
			n := r.Buffered()
			if n == 0 {
				break
			}
			buffered, _ := r.Peek(n)
			if bytes.IndexByte(buffered, '\n') < 0 {
				break
			}
			line, _ := readLine(r)
			items = append(items, parseItem(line))
		}

		ok := s.serveBatch(w, items, ts)
		if w.Flush() != nil || !ok {
			return
		}
	}
}

// readLine returns the next line without its LF. On bufio.ErrBufferFull
// (a line longer than the reader can hold) or io.EOF with partial
// content (a final unterminated line) the bytes read so far come back
// with the error. The returned slice aliases the reader's buffer and is
// valid only until the next read.
func readLine(r *bufio.Reader) ([]byte, error) {
	line, err := r.ReadSlice('\n')
	if err != nil {
		return line, err
	}
	return line[:len(line)-1], nil
}

// serveBatch answers one parse-ahead batch in protocol order. Commands
// are grouped into contiguous runs that share a shard: a keyed command
// pins the open run to its key's shard, unkeyed commands ride along with
// whatever run is open (any shard may execute them), and a keyed command
// for a different shard — or a control command or parse error, which
// must reply in position — cuts the run. Each run travels to its shard
// as one batch, where the flat-combining loop in engine.serve answers it
// as a unit; runs are submitted strictly in order, one at a time, which
// is what preserves per-connection program order across shards.
//
// A MULTI window (ts.active) suspends that machinery: staged lines
// answer "+QUEUED" in place and never join a run, so nothing travels to
// the shards until EXEC commits the buffer through the STM keyspace.
//
// Bypass-eligible reads (engine.canBypass) never join a run either: the
// open run is flushed — submitting it and writing its replies, which is
// exactly what keeps this connection's earlier writes ahead of the read
// in program order — and the read executes right here on the connection
// goroutine via engine.readLocal, its reply written in place. Reply
// order is therefore position order by construction, interleaving
// bypass and mailbox replies exactly as the lines arrived, even though
// the reads never visited a mailbox.
//
// The caller flushes the writer, which is where a write error surfaces
// (see reply); the return is false when the connection must close for
// another reason: QUIT, or engine shutdown.
func (s *Server) serveBatch(w *bufio.Writer, items []lineItem, ts *txnState) bool {
	b := getBatch()
	defer putBatch(b)
	shard := -1 // no keyed command has pinned the open run yet

	// One router resolution per parse-ahead batch: routing decisions and
	// submissions agree on the topology. A RESHARD landing mid-batch is
	// caught by the engine's staleness check, which replays affected runs
	// through the new router.
	rt := s.eng.router.Load()

	// One latency origin per parse-ahead batch: every run submitted from
	// this batch measures from here, trading one clock read per run for
	// one per batch (runs are answered serially, so a later run's
	// latency legitimately includes its wait behind the earlier ones).
	start := s.eng.refreshCoarse()

	flushRun := func() bool {
		if len(b.cmds) == 0 {
			return true
		}
		si := shard
		b.pinned = si >= 0
		if si < 0 {
			si = s.eng.nextShard(rt)
		}
		b.start = start
		replies, ok := s.eng.doBatch(rt, si, b)
		if !ok {
			// Aborted shutdown: still answer each accepted command.
			for range b.cmds {
				s.reply(w, errReply("server shutting down"))
			}
			return false
		}
		for _, r := range replies {
			s.reply(w, r)
		}
		b.reset()
		shard = -1
		return true
	}

	for _, it := range items {
		info := &ops[it.cmd.Op]
		switch {
		case it.err != nil || info.family == famNone:
			// Parse errors and control verbs answer in position, after the
			// open run (inside a MULTI window there is none: MULTI cut it).
			// The control verbs execute inline on the connection goroutine:
			// they must observe this connection's earlier commands.
			if !flushRun() {
				return false
			}
			if it.err != nil {
				ts.dirty = ts.active // poisons an open window
				s.reply(w, errReply("%v", it.err))
			} else if !s.control(w, it.cmd, ts) {
				return false
			}
			rt = s.eng.router.Load() // a RESHARD changes the topology mid-batch
		case ts.active:
			s.stage(w, it.cmd, ts)
		default:
			if s.eng.canBypass(it.cmd) {
				if !flushRun() {
					return false
				}
				// served=false means a RESTORE or RESHARD overlapped the
				// read: fall through and let it join a run like any
				// mailbox read.
				if r, served := s.eng.readLocal(it.cmd); served {
					s.reply(w, r)
					continue
				}
			}
			if info.family <= famMap {
				si := keyShard(it.cmd.ShardKey(), rt.n())
				if shard >= 0 && si != shard && !flushRun() {
					return false
				}
				shard = si
			}
			b.cmds = append(b.cmds, it.cmd)
		}
	}
	return flushRun()
}

// control answers one control verb, inside a MULTI window or out; false
// closes the connection (QUIT).
func (s *Server) control(w *bufio.Writer, cmd Command, ts *txnState) bool {
	switch cmd.Op {
	case OpQuit:
		ts.reset()
		s.reply(w, reply{status: stOK})
		return false
	case OpPing:
		s.replyRaw(w, "PONG")
	case OpStats:
		s.replyRaw(w, s.eng.statsBody()+"END")
	case OpSave, OpBGSave, OpRestore, OpReshard:
		// The durability/elasticity verbs. No structure behind them is
		// transactional, so a window refuses them like any such verb.
		if ts.active {
			s.stage(w, cmd, ts)
			break
		}
		switch cmd.Op {
		case OpSave, OpBGSave:
			s.reply(w, s.eng.save(cmd.Op == OpBGSave))
		case OpRestore:
			s.reply(w, s.eng.restoreFrom(cmd.Key))
		default:
			s.reply(w, s.eng.doReshard(int(cmd.Arg)))
		}
	default: // the four transaction verbs
		s.txnVerb(w, cmd.Op, ts)
	}
	return true
}

// txnVerb answers MULTI, EXEC, DISCARD and TXSTATS against the window
// state; the first arm that matches decides.
func (s *Server) txnVerb(w *bufio.Writer, op Op, ts *txnState) {
	r := reply{status: stOK}
	switch {
	case s.eng.ks == nil:
		r = errReply("transactions disabled (-txn off)")
	case op == OpTxStats:
		s.replyRaw(w, s.eng.txStatsLine())
		return
	case op == OpMulti:
		if ts.active {
			ts.dirty = true
			r = errReply("MULTI calls cannot be nested")
		}
		ts.active = true
	case !ts.active:
		r = errReply("%s without MULTI", op)
	case op == OpDiscard:
		ts.reset()
	case ts.dirty:
		ts.reset()
		r = errReply("EXEC aborted (errors while queueing)")
	case op == OpExec:
		replies := s.eng.execTxn(ts)
		ts.reset()
		s.replyRaw(w, "*"+strconv.Itoa(len(replies)))
		for _, res := range replies {
			s.reply(w, res)
		}
		return
	}
	s.reply(w, r)
}

// stage answers one executable line inside an open MULTI window: it
// queues, or it poisons the window so EXEC refuses.
func (s *Server) stage(w *bufio.Writer, cmd Command, ts *txnState) {
	switch {
	case !ops[cmd.Op].stage:
		ts.dirty = true
		s.reply(w, errReply("%s cannot be staged in MULTI", cmd.Op))
	case len(ts.staged) >= MaxTxnOps:
		ts.dirty = true
		s.reply(w, errReply("transaction exceeds %d staged commands", MaxTxnOps))
	default:
		ts.staged = append(ts.staged, cmd)
		s.replyRaw(w, "+QUEUED")
	}
}

// reply appends one reply line to the write buffer (the batch loop
// flushes once per batch). Neither it nor replyRaw reports a write error:
// a bufio.Writer keeps its first error, refuses everything after it, and
// returns it from Flush, which handle checks after every batch — the one
// place a write can fail.
func (s *Server) reply(w *bufio.Writer, r reply) {
	var line string
	switch r.status {
	case stOK:
		line = "OK"
	case stInt:
		line = strconv.FormatInt(r.val, 10)
	case stEmpty:
		line = "EMPTY"
	case stFull:
		line = "FULL"
	case stErr:
		line = "ERR " + r.msg
	}
	s.replyRaw(w, line)
}

func (s *Server) replyRaw(w *bufio.Writer, line string) {
	_, _ = w.WriteString(line) // sticky in w: Flush reports it (see reply)
	_ = w.WriteByte('\n')
}

// Shutdown stops accepting, wakes idle readers so in-flight commands can
// finish, and waits for connections to drain. When ctx expires first, the
// remaining connections are force-closed. The shard goroutines stop after
// the last connection, so every accepted command gets a reply. Safe to
// call more than once; only the first call does the work.
func (s *Server) Shutdown(ctx context.Context) error {
	var err error
	s.shutdown.Do(func() {
		close(s.done)
		if s.ln != nil {
			s.ln.Close()
		}
		// Wake connections blocked in Read; they observe done and exit
		// after finishing (and answering) any command already parsed.
		s.eachConn(func(c net.Conn) { c.SetReadDeadline(time.Now()) })

		drained := make(chan struct{})
		go func() { s.connWG.Wait(); close(drained) }()
		select {
		case <-drained:
		case <-ctx.Done():
			// Unstick connection goroutines parked on saturated shard
			// queues, then force-close the sockets.
			s.eng.abort()
			s.eachConn(func(c net.Conn) { c.Close() })
			<-drained
			err = fmt.Errorf("server: drain expired: %w", ctx.Err())
		}
		s.eng.stop()
	})
	return err
}

// drainLine discards input up to the next newline, bounded in bytes and
// time, so the peer's oversized line is consumed before the close.
func drainLine(conn net.Conn) {
	conn.SetReadDeadline(time.Now().Add(time.Second))
	buf := make([]byte, 4096)
	for budget := 1 << 20; budget > 0; {
		n, err := conn.Read(buf)
		for i := 0; i < n; i++ {
			if buf[i] == '\n' {
				return
			}
		}
		if err != nil {
			return
		}
		budget -= n
	}
}

func (s *Server) eachConn(f func(net.Conn)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for c := range s.conns {
		f(c)
	}
}
