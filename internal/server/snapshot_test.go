package server

// Snapshot-consistency and reshard harnesses: SAVE taken by a concurrent
// client mid-history must decode to a consistent cut — a state the
// sequential model could have held at some instant inside the SAVE's
// [call, return] window — and a live RESHARD under recorded pipelined
// traffic must leave the history linearizable with zero dropped or
// duplicated replies. The snapshot check works by recording the SAVE as
// an ordinary history operation ("snapshot") whose output is the decoded
// file contents; the Wing & Gong checker then has to find a legal
// linearization point for it like any other op.

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"amp/internal/core"
	"amp/internal/snapshot"
)

// recOp is one scripted command of a recorded client: the wire line, the
// model action/input it corresponds to, and a parser from the reply line
// to the model's output domain.
type recOp struct {
	line   string
	action string
	input  any
	parse  func(reply string) (any, error)
}

func parseBool(reply string) (any, error) {
	switch reply {
	case "1":
		return true, nil
	case "0":
		return false, nil
	}
	return nil, fmt.Errorf("reply %q, want 0 or 1", reply)
}

func parseOK(reply string) (any, error) {
	if reply != "OK" {
		return nil, fmt.Errorf("reply %q, want OK", reply)
	}
	return nil, nil
}

func parseIntOrEmpty(reply string) (any, error) {
	if reply == "EMPTY" {
		return core.Empty, nil
	}
	v, err := strconv.Atoi(reply)
	if err != nil {
		return nil, fmt.Errorf("reply %q, want integer or EMPTY", reply)
	}
	return v, nil
}

// runRecClient pipelines a script through one connection with the given
// window depth, recording every op. Each command is matched to exactly
// one reply line; any shortfall or surplus surfaces as a read error or a
// parse failure, so a nil return certifies the reply accounting.
func runRecClient(addr string, rec *core.Recorder, me core.ThreadID, depth int, ops []recOp) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)

	type sent struct {
		pend *core.PendingOp
		op   recOp
	}
	window := make([]sent, 0, depth)
	for next := 0; next < len(ops); {
		window = window[:0]
		for next < len(ops) && len(window) < depth {
			op := ops[next]
			window = append(window, sent{pend: rec.Call(me, op.action, op.input), op: op})
			fmt.Fprintf(w, "%s\n", op.line)
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
			out, err := s.op.parse(strings.TrimSuffix(line, "\n"))
			if err != nil {
				return fmt.Errorf("%s: %v", s.op.line, err)
			}
			s.pend.Done(out)
		}
	}
	return nil
}

// setOps mixes SET/DEL over a small shared key range so clients contend
// on membership and the snapshot lands on a state that is genuinely in
// flux.
func setOps(id, n int) []recOp {
	ops := make([]recOp, n)
	for i := range ops {
		k := (id*31 + i*7) % 16
		if i%2 == 0 {
			ops[i] = recOp{line: fmt.Sprintf("SET %d", k), action: "add", input: k, parse: parseBool}
		} else {
			ops[i] = recOp{line: fmt.Sprintf("DEL %d", k), action: "remove", input: k, parse: parseBool}
		}
	}
	return ops
}

func mapOps(id, n int) []recOp {
	ops := make([]recOp, n)
	for i := range ops {
		k := fmt.Sprintf("k%d", (id*5+i*3)%8)
		if i%2 == 0 {
			v := int64(id*100_000 + i)
			ops[i] = recOp{line: fmt.Sprintf("HSET %s %d", k, v), action: "set",
				input: core.MapSetInput{K: k, V: v}, parse: parseBool}
		} else {
			ops[i] = recOp{line: "HDEL " + k, action: "del", input: k, parse: parseBool}
		}
	}
	return ops
}

func queueOps(id, n int) []recOp {
	ops := make([]recOp, n)
	for i := range ops {
		if i%2 == 0 {
			v := id*100_000 + i
			ops[i] = recOp{line: fmt.Sprintf("ENQ %d", v), action: "enq", input: v, parse: parseOK}
		} else {
			ops[i] = recOp{line: "DEQ", action: "deq", input: nil, parse: parseIntOrEmpty}
		}
	}
	return ops
}

// Projections from a decoded snapshot to the model's state domain. Empty
// families normalize to nil so they compare DeepEqual with the models'
// nil-initial states.

func projectSetState(st *snapshot.State) any {
	if len(st.Set) == 0 {
		return []int(nil)
	}
	out := make([]int, len(st.Set))
	for i, v := range st.Set {
		out[i] = int(v)
	}
	sort.Ints(out)
	return out
}

func projectMapState(st *snapshot.State) any {
	if len(st.Map) == 0 {
		return []core.MapPair(nil)
	}
	out := make([]core.MapPair, len(st.Map))
	for i, e := range st.Map {
		out[i] = core.MapPair{K: e.Key, V: e.Val}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].K < out[j].K })
	return out
}

func projectQueueState(st *snapshot.State) any {
	if len(st.Queue) == 0 {
		return []int(nil)
	}
	out := make([]int, len(st.Queue))
	for i, v := range st.Queue {
		out[i] = int(v)
	}
	return out
}

// recordSave round-trips one SAVE on its own connection, decodes the
// written file, and records the whole exchange as a "snapshot" operation
// whose output is the decoded family state. Decoding happens before
// Done, inside the operation's window — that only widens the window the
// checker must place the cut in, which is sound.
func recordSave(srv *Server, rec *core.Recorder, me core.ThreadID, project func(*snapshot.State) any) error {
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		return err
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	pend := rec.Call(me, "snapshot", nil)
	if _, err := fmt.Fprint(conn, "SAVE\n"); err != nil {
		return err
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	line, err := r.ReadString('\n')
	if err != nil {
		return err
	}
	if line != "OK\n" {
		return fmt.Errorf("SAVE reply %q, want OK", strings.TrimSuffix(line, "\n"))
	}
	st, err := snapshot.Read(srv.eng.snapPath())
	if err != nil {
		return fmt.Errorf("decode snapshot: %v", err)
	}
	pend.Done(project(st))
	return nil
}

// testSnapshotConsistency records concurrent family traffic with a SAVE
// landing mid-history, then checks the combined history — including the
// snapshot op, whose output is the decoded file — against the model. As
// in testServerLinearizable, an exhausted search budget proves nothing,
// so the harness re-records rather than hanging; only a decided
// non-linearizable verdict fails.
func testSnapshotConsistency(t *testing.T, opts Options, model core.Model,
	genOps func(id, n int) []recOp, project func(*snapshot.State) any) {
	for _, procs := range []int{2, 8} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			const clients, opsEach = 4, 150
			const budget = 2_000_000
			const attempts = 6
			for attempt := 1; attempt <= attempts; attempt++ {
				o := opts
				o.SnapshotDir = t.TempDir()
				srv := startServer(t, o)
				rec := core.NewRecorder()

				var wg sync.WaitGroup
				for id := 0; id < clients; id++ {
					wg.Add(1)
					go func(id int) {
						defer wg.Done()
						depth := 1 + id%2
						err := runRecClient(srv.Addr().String(), rec, core.ThreadID(id),
							depth, genOps(id, opsEach))
						if err != nil {
							t.Errorf("client %d: %v", id, err)
						}
					}(id)
				}
				saveErr := make(chan error, 1)
				wg.Add(1)
				go func() {
					defer wg.Done()
					// Land inside the clients' few-millisecond run.
					time.Sleep(2 * time.Millisecond)
					saveErr <- recordSave(srv, rec, core.ThreadID(clients), project)
				}()
				wg.Wait()
				if err := <-saveErr; err != nil {
					t.Fatalf("saver: %v", err)
				}
				if t.Failed() {
					return
				}

				h := rec.History()
				if got, want := len(h), clients*opsEach+1; got != want {
					t.Fatalf("history has %d ops, want %d", got, want)
				}
				res := core.CheckBudget(model, h, budget)
				switch {
				case res.Exhausted:
					t.Logf("%s: attempt %d/%d exhausted the %d-step budget on %d ops; re-recording",
						model.Name, attempt, attempts, budget, len(h))
				case !res.Linearizable:
					t.Fatalf("%s: history with mid-flight snapshot is not linearizable — SAVE did not capture a consistent cut", model.Name)
				default:
					return
				}
			}
			t.Fatalf("%s: checker budget exhausted on %d consecutive recordings", model.Name, attempts)
		})
	}
}

func TestSnapshotConsistencySet(t *testing.T) {
	testSnapshotConsistency(t, Options{Shards: 4}, core.SetModel(), setOps, projectSetState)
}

// TestSnapshotConsistencyMap runs the map family through the default
// transactional keyspace, so the snapshot's map section is collected via
// Keyspace.Range.
func TestSnapshotConsistencyMap(t *testing.T) {
	testSnapshotConsistency(t, Options{Shards: 4}, core.MapModel(), mapOps, projectMapState)
}

// TestSnapshotConsistencyMapSharded disables the keyspace so HSET/HGET
// run against the per-shard string maps and the snapshot's map section
// is collected by ranging the shards.
func TestSnapshotConsistencyMapSharded(t *testing.T) {
	testSnapshotConsistency(t, Options{Shards: 4, Txn: "off"}, core.MapModel(), mapOps, projectMapState)
}

func TestSnapshotConsistencyQueue(t *testing.T) {
	testSnapshotConsistency(t, Options{Shards: 4}, core.QueueModel(), queueOps, projectQueueState)
}

// TestReshardUnderLoadLinearizable doubles the shard count twice while
// recorded pipelined clients hammer the keyed set family. Every command
// must get exactly one reply (runRecClient errors otherwise, and the
// recorded-op count is checked), the combined history must stay
// linearizable, and STATS must report the final shard count.
func TestReshardUnderLoadLinearizable(t *testing.T) {
	const clients, opsEach = 4, 200
	const budget = 2_000_000
	const attempts = 6
	for attempt := 1; attempt <= attempts; attempt++ {
		srv := startServer(t, Options{Shards: 2, MaxShards: 8})
		rec := core.NewRecorder()

		var wg sync.WaitGroup
		for id := 0; id < clients; id++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				depth := 1 + id%2
				err := runRecClient(srv.Addr().String(), rec, core.ThreadID(id),
					depth, setOps(id, opsEach))
				if err != nil {
					t.Errorf("client %d: %v", id, err)
				}
			}(id)
		}
		reshardErr := make(chan error, 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			reshardErr <- func() error {
				conn, err := net.Dial("tcp", srv.Addr().String())
				if err != nil {
					return err
				}
				defer conn.Close()
				r := bufio.NewReader(conn)
				for _, n := range []int{4, 8} {
					time.Sleep(time.Millisecond)
					if _, err := fmt.Fprintf(conn, "RESHARD %d\n", n); err != nil {
						return err
					}
					conn.SetReadDeadline(time.Now().Add(10 * time.Second))
					line, err := r.ReadString('\n')
					if err != nil {
						return err
					}
					if line != "OK\n" {
						return fmt.Errorf("RESHARD %d reply %q, want OK", n, strings.TrimSuffix(line, "\n"))
					}
				}
				return nil
			}()
		}()
		wg.Wait()
		if err := <-reshardErr; err != nil {
			t.Fatalf("resharder: %v", err)
		}
		if t.Failed() {
			return
		}

		if got, want := rec.Len(), clients*opsEach; got != want {
			t.Fatalf("recorded %d ops, want %d: replies were dropped or duplicated", got, want)
		}
		res := core.CheckBudget(core.SetModel(), rec.History(), budget)
		switch {
		case res.Exhausted:
			t.Logf("attempt %d/%d exhausted the %d-step budget; re-recording", attempt, attempts, budget)
			continue
		case !res.Linearizable:
			t.Fatalf("set history across RESHARD 2→4→8 is not linearizable")
		}

		c := dial(t, srv)
		body := readStats(t, c, c.cmd(t, "STATS"))
		if !strings.Contains(body, "shards 8\n") {
			t.Fatalf("STATS after reshard missing %q:\n%s", "shards 8", body)
		}
		return
	}
	t.Fatalf("checker budget exhausted on %d consecutive recordings", attempts)
}

// TestReshardValidation pins the deterministic reshard contract: only
// exact doubling is accepted, the MaxShards ceiling is enforced, data
// survives a doubling, and STATS reflects the new count.
func TestReshardValidation(t *testing.T) {
	srv := startServer(t, Options{Shards: 4}) // MaxShards defaults to 8
	c := dial(t, srv)

	for _, k := range []int{1, 2, 3, 100, 1 << 40} {
		c.expect(t, fmt.Sprintf("SET %d", k), "1")
	}
	c.expect(t, "HSET alpha 7", "1")
	c.expect(t, "ENQ 10", "OK")
	c.expect(t, "ENQ 20", "OK")
	c.expect(t, "INC", "0")

	c.expect(t, "RESHARD 4", "ERR reshard target 4 is not double the current 4 shards")
	c.expect(t, "RESHARD 6", "ERR reshard target 6 is not double the current 4 shards")
	c.expect(t, "RESHARD 16", "ERR reshard target 16 is not double the current 4 shards")
	c.expect(t, "RESHARD 8", "OK")
	c.expect(t, "RESHARD 16", "ERR reshard target 16 exceeds -max-shards 8")

	// State is intact after the doubling.
	for _, k := range []int{1, 2, 3, 100, 1 << 40} {
		c.expect(t, fmt.Sprintf("GET %d", k), "1")
	}
	c.expect(t, "GET 4", "0")
	c.expect(t, "HGET alpha", "7")
	c.expect(t, "DEQ", "10")
	c.expect(t, "DEQ", "20")
	c.expect(t, "READ", "1")

	body := readStats(t, c, c.cmd(t, "STATS"))
	if !strings.Contains(body, "shards 8\n") {
		t.Fatalf("STATS missing %q after reshard:\n%s", "shards 8", body)
	}
}

// TestSaveRestoreServer saves one server's state and restores it into a
// second live server with a different shard count: the restored state
// must equal the snapshot point, not include post-save mutations, and
// the counter must continue from its saved value — on the keyspace and on
// every -counter backend, into a destination whose counter already took
// tickets of its own (the restore overwrites the count, it does not add).
// Every pool backend gets a row too: the items must come back in the
// family's order — oldest, newest, smallest first — from the restored
// server and from the source, whose pools the SAVE drained and refilled.
func TestSaveRestoreServer(t *testing.T) {
	rows := map[string]Options{"keyspace": {}}
	for _, name := range CounterBackends() {
		rows["off-"+name] = Options{Txn: "off", Counter: name}
	}
	for _, name := range QueueBackends() {
		rows["queue-"+name] = Options{Queue: name}
	}
	for _, name := range StackBackends() {
		rows["stack-"+name] = Options{Stack: name}
	}
	for _, name := range PQueueBackends() {
		rows["pqueue-"+name] = Options{PQueue: name}
	}
	pooled := func(t *testing.T, c *client) {
		t.Helper()
		for _, step := range [][2]string{{"DEQ", "5"}, {"DEQ", "6"}, {"DEQ", "4"}, {"DEQ", "EMPTY"},
			{"POP", "9"}, {"POP", "8"}, {"POP", "10"}, {"POP", "EMPTY"},
			{"PQMIN", "1"}, {"PQMIN", "2"}, {"PQMIN", "3"}, {"PQMIN", "EMPTY"}} {
			c.expect(t, step[0], step[1])
		}
	}
	for name, opts := range rows {
		t.Run(name, func(t *testing.T) {
			opts.Shards, opts.SnapshotDir = 4, t.TempDir()
			src := startServer(t, opts)
			c := dial(t, src)

			c.expect(t, "SET 7", "1")
			c.expect(t, "SET 99", "1")
			c.expect(t, "HSET user:1 41", "1")
			for _, line := range []string{"ENQ 5", "ENQ 6", "ENQ 4", "PUSH 10", "PUSH 8", "PUSH 9",
				"PQADD 3", "PQADD 1", "PQADD 2"} {
				c.expect(t, line, "OK")
			}
			c.expect(t, "INC", "0")
			c.expect(t, "INC", "1")
			c.expect(t, "SAVE", "OK")
			// Mutations after the save must not be in the snapshot.
			c.expect(t, "SET 1000", "1")
			c.expect(t, "DEL 7", "1")
			c.expect(t, "INC", "2")
			pooled(t, c)

			opts.Shards, opts.SnapshotDir = 2, t.TempDir()
			dst := startServer(t, opts)
			d := dial(t, dst)
			for i := 0; i < 3; i++ {
				d.expect(t, "INC", strconv.Itoa(i))
			}
			d.expect(t, "HSET stale 1", "1")
			d.expect(t, "PUSH 77", "OK")
			if err := dst.Restore(src.eng.snapPath()); err != nil {
				t.Fatalf("Restore: %v", err)
			}
			d.expect(t, "GET 7", "1")
			d.expect(t, "GET 99", "1")
			d.expect(t, "GET 1000", "0")
			d.expect(t, "HGET user:1", "41")
			d.expect(t, "HGET stale", "EMPTY")
			pooled(t, d)
			d.expect(t, "READ", "2")
			d.expect(t, "INC", "2")
			d.expect(t, "READ", "3")
		})
	}
}

// TestReshardSharedAndPrivateDictionaries is the deterministic reshard
// contract for the map and counter families on both dictionary layouts:
// the keyspace every shard shares (nothing to move: a reshard that
// migrated it would delete the movers from the one copy, and a collect
// that visited it per shard would save every key once per shard) and
// private per-shard tables (every key moves at most once per doubling).
// After 2→4→8 every key answers on the plain path — the bypass on both
// rows — and, with the txn engine, through MULTI/HGET/EXEC; READ is
// unchanged; and a SAVE image holds each key exactly once.
func TestReshardSharedAndPrivateDictionaries(t *testing.T) {
	const keys, incs = 1000, 5
	for name, opts := range map[string]Options{
		"keyspace": {},
		"private":  {Map: "epoch", Txn: "off"},
	} {
		t.Run(name, func(t *testing.T) {
			opts.Shards, opts.MaxShards, opts.SnapshotDir = 2, 8, t.TempDir()
			srv := startServer(t, opts)
			c := dial(t, srv)
			for k := 0; k < keys; k++ {
				c.expect(t, fmt.Sprintf("HSET k%d %d", k, k+1000), "1")
			}
			for i := 0; i < incs; i++ {
				c.expect(t, "INC", strconv.Itoa(i))
			}
			c.expect(t, "RESHARD 4", "OK")
			c.expect(t, "RESHARD 8", "OK")

			for k := 0; k < keys; k++ {
				line, want := fmt.Sprintf("HGET k%d", k), strconv.Itoa(k+1000)
				c.expect(t, line, want)
				if opts.Txn != "off" {
					c.expect(t, "MULTI", "OK")
					c.expect(t, line, "+QUEUED")
					c.expect(t, "EXEC", "*1")
					if got := c.readLine(t); got != want {
						t.Fatalf("MULTI/%s/EXEC → %q, want %q", line, got, want)
					}
				}
			}
			c.expect(t, "READ", strconv.Itoa(incs))
			if got := srv.eng.readBypass.Value(); got != keys {
				t.Fatalf("%d reads took the bypass, want all %d", got, keys)
			}

			c.expect(t, "SAVE", "OK")
			st, err := snapshot.Read(srv.eng.snapPath())
			if err != nil {
				t.Fatalf("read snapshot back: %v", err)
			}
			if len(st.Map) != keys || st.Counter != incs {
				t.Fatalf("snapshot holds %d map entries and counter %d, want %d and %d",
					len(st.Map), st.Counter, keys, incs)
			}
		})
	}
}

// TestRestoreVerb exercises the RESTORE wire verb end to end: the
// filename is resolved under the destination's -snapshot-dir, a missing
// file answers ERR, and path-shaped names are rejected outright.
func TestRestoreVerb(t *testing.T) {
	dir := t.TempDir()
	src := startServer(t, Options{Shards: 2, SnapshotDir: dir})
	c := dial(t, src)
	c.expect(t, "SET 12", "1")
	c.expect(t, "SAVE", "OK")

	// The verb names a file under the destination server's own
	// -snapshot-dir, so the destination points at the source's directory.
	dst := startServer(t, Options{Shards: 4, SnapshotDir: dir})
	d := dial(t, dst)
	d.expect(t, "RESTORE "+snapFile, "OK")
	d.expect(t, "GET 12", "1")
	if got := d.cmd(t, "RESTORE missing.snap"); !strings.HasPrefix(got, "ERR ") {
		t.Fatalf("RESTORE missing file → %q, want ERR", got)
	}
	// The failed restore left the previous state alone.
	d.expect(t, "GET 12", "1")

	// Path-shaped names never reach the filesystem: a TCP client must
	// not be able to point the server at arbitrary files (or use the
	// error replies as an existence oracle).
	for _, name := range []string{
		".", "..", "../" + snapFile, "a/b", `..\evil`, "/etc/passwd",
		src.eng.snapPath(), // full paths are for the -restore boot flag only
	} {
		want := "ERR RESTORE takes a snapshot filename under -snapshot-dir, not a path"
		if got := d.cmd(t, "RESTORE "+name); got != want {
			t.Fatalf("RESTORE %q → %q, want %q", name, got, want)
		}
	}
	d.expect(t, "GET 12", "1")
}

// TestRestoreAllOrNothing forges a snapshot the configured backends must
// refuse (a queue section over the bounded queue's capacity) and asserts
// the refusal happens before any live state is touched: a failed RESTORE
// answers ERR and leaves every family exactly as it was, never a cleared
// store with a half-loaded image.
func TestRestoreAllOrNothing(t *testing.T) {
	dir := t.TempDir()
	srv := startServer(t, Options{Shards: 2, SnapshotDir: dir, Queue: "bounded", QueueCapacity: 2})
	c := dial(t, srv)
	c.expect(t, "SET 5", "1")
	c.expect(t, "HSET k 9", "1")
	c.expect(t, "ENQ 1", "OK")
	c.expect(t, "PUSH 4", "OK")

	st := &snapshot.State{Set: []int64{77}, Queue: []int64{1, 2, 3}, Shards: 2}
	if _, err := snapshot.Write(filepath.Join(dir, "big.snap"), st); err != nil {
		t.Fatalf("write forged snapshot: %v", err)
	}
	got := c.cmd(t, "RESTORE big.snap")
	if !strings.HasPrefix(got, "ERR ") || !strings.Contains(got, "queue restore") {
		t.Fatalf("RESTORE over-capacity queue → %q, want ERR about the queue", got)
	}
	// The refused image changed nothing.
	c.expect(t, "GET 5", "1")
	c.expect(t, "GET 77", "0")
	c.expect(t, "HGET k", "9")
	c.expect(t, "DEQ", "1")
	c.expect(t, "DEQ", "EMPTY")
	c.expect(t, "POP", "4")
}

// TestSnapshotWriteFailureCounted points -snapshot-dir at a regular
// file, so every snapshot write fails, and asserts the failures surface
// in STATS: SAVE's synchronously (plus the fails counter), and BGSAVE's
// — whose OK only promises the cut — through the fails counter alone.
func TestSnapshotWriteFailureCounted(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "notadir")
	if err := os.WriteFile(dir, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	srv := startServer(t, Options{Shards: 2, SnapshotDir: dir})
	c := dial(t, srv)
	if got := c.cmd(t, "SAVE"); !strings.HasPrefix(got, "ERR ") {
		t.Fatalf("SAVE into a non-directory → %q, want ERR", got)
	}
	c.expect(t, "BGSAVE", "OK") // the cut succeeds; the background write cannot
	deadline := time.Now().Add(5 * time.Second)
	for {
		body := readStats(t, c, c.cmd(t, "STATS"))
		if strings.Contains(body, "snap saves=0 fails=2 ") {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("STATS never showed the two failed writes:\n%s", body)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSnapshotOlderCutNeverOverwritesNewer is the publish-order
// regression: BGSAVE takes cut 1 and its writer stalls (the test holds the
// write mutex), a key is written, SAVE takes cut 2 and answers OK. The
// file must then contain the key whichever writer publishes first: the
// stalled writer must not rename cut 1 over cut 2 afterwards. Then
// the drop rule on its own, deterministically: a writer that finds a
// newer cut on disk leaves the file alone and counts as neither a save
// nor a fail.
func TestSnapshotOlderCutNeverOverwritesNewer(t *testing.T) {
	srv := startServer(t, Options{Shards: 2, SnapshotDir: t.TempDir()})
	c, e := dial(t, srv), srv.eng
	cuts := func() uint64 {
		e.reconfigMu.Lock()
		defer e.reconfigMu.Unlock()
		return e.snapCut
	}
	holdsKey := func() bool {
		st, err := snapshot.Read(e.snapPath())
		if err != nil {
			t.Fatalf("read snapshot: %v", err)
		}
		return slices.ContainsFunc(st.Map, func(ent snapshot.Entry) bool { return ent.Key == "late" })
	}

	e.snapMu.Lock()
	c.expect(t, "BGSAVE", "OK") // cut 1; the background writer parks on snapMu
	c.expect(t, "HSET late 1", "1")
	saved := make(chan reply, 1)
	go func() { saved <- e.save(false) }()
	for deadline := time.Now().Add(5 * time.Second); cuts() < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("SAVE never took its cut")
		}
	}
	e.snapMu.Unlock()
	if r := <-saved; r.status != stOK {
		t.Fatalf("SAVE → %+v, want OK", r)
	}
	e.snapWG.Wait()
	if !holdsKey() {
		t.Fatal("the file holds BGSAVE's older cut: it lacks the key SAVE's OK covered")
	}
	if saves, fails := e.snapSaves.Value(), e.snapFails.Value(); saves < 1 || saves > 2 || fails != 0 {
		t.Fatalf("saves=%d fails=%d, want 1 (older cut dropped) or 2 (older cut first), no fails", saves, fails)
	}

	saves := e.snapSaves.Value()
	e.snapMu.Lock()
	c.expect(t, "HDEL late", "1")
	c.expect(t, "BGSAVE", "OK") // cut 3, without the key
	e.snapDisk = 4              // as if a SAVE that cut later had already published
	e.snapMu.Unlock()
	e.snapWG.Wait()
	if !holdsKey() || e.snapSaves.Value() != saves || e.snapFails.Value() != 0 {
		t.Fatalf("an overtaken writer published: key in file %v, saves %d → %d, fails %d",
			holdsKey(), saves, e.snapSaves.Value(), e.snapFails.Value())
	}
}

// TestBypassReadRefusedMidRestore pins the reconfiguration seqlock
// deterministically: a RESTORE or RESHARD is wedged (reconfigHook) at its
// most inconsistent point — every family cleared and nothing inserted
// yet; a slot flipped to the split half and the movers not yet deleted
// from the source — and a wait-free bypass read must then refuse to serve
// (served=false, so the caller retries through the mailbox and parks
// behind the reconfiguration's locks) rather than report the torn state.
// Covers every bypass flavor: the lock-free set's and the epoch map's
// per-shard reads, and the shared keyspace's HGET.
func TestBypassReadRefusedMidRestore(t *testing.T) {
	run := func(t *testing.T, opts Options, reshard bool, seed string, cmd Command, want int64) {
		opts.Shards = 2
		opts.SnapshotDir = t.TempDir()
		srv := startServer(t, opts)
		c := dial(t, srv)
		c.expect(t, seed, "1")
		c.expect(t, "SAVE", "OK")
		st, err := snapshot.Read(srv.eng.snapPath())
		if err != nil {
			t.Fatalf("read snapshot back: %v", err)
		}

		e := srv.eng
		if r, served := e.readLocal(cmd); !served || r.val != want {
			t.Fatalf("bypass read before reconfiguration: served=%v reply=%+v", served, r)
		}
		midway, release := make(chan struct{}), make(chan struct{})
		var once sync.Once // a reshard fires the hook once per source shard
		e.reconfigHook = func() { once.Do(func() { close(midway); <-release }) }
		done := make(chan error, 1)
		go func() {
			if reshard {
				done <- e.reshard(4)
			} else {
				done <- e.loadSnapshot(st)
			}
		}()
		<-midway
		if r, served := e.readLocal(cmd); served {
			t.Fatalf("bypass read served the torn mid-reconfiguration state: %+v", r)
		}
		close(release)
		if err := <-done; err != nil {
			t.Fatalf("reconfiguration: %v", err)
		}
		if r, served := e.readLocal(cmd); !served || r.val != want {
			t.Fatalf("bypass read after reconfiguration: served=%v reply=%+v", served, r)
		}
	}

	for _, row := range []struct {
		name string
		opts Options
		seed string
		cmd  Command
		want int64
	}{
		{"set-lockfree", Options{Set: "lockfree", Txn: "off"}, "SET 5", Command{Op: OpGet, Arg: 5}, 1},
		{"map-epoch", Options{Map: "epoch", Txn: "off"}, "HSET k 7", Command{Op: OpHGet, Key: "k"}, 7},
		{"map-keyspace", Options{}, "HSET k 7", Command{Op: OpHGet, Key: "k"}, 7},
	} {
		t.Run(row.name, func(t *testing.T) { run(t, row.opts, false, row.seed, row.cmd, row.want) })
		t.Run("reshard-"+row.name, func(t *testing.T) { run(t, row.opts, true, row.seed, row.cmd, row.want) })
	}
}

// TestBypassReadsDuringRestore pins the torn-restore fix: wait-free
// bypass reads run on connection goroutines with no combiner lock, so
// without the topoGen seqlock they could observe RESTORE's
// half-restored keyspace. Every key here is present — with the same
// value — both before and after each restore, so any miss is a
// linearizability violation. Two legs: the lock-free set (GET bypass
// against per-shard structures) and the transactional keyspace (HGET
// bypass against the tvar directory RESTORE clears and refills).
func TestBypassReadsDuringRestore(t *testing.T) {
	const keys = 512
	const depth = 32 // pipelined reads per burst: the bypass fires per line
	run := func(t *testing.T, opts Options, seed func(c *client, k int), read func(k int) (line, want string)) {
		opts.Shards = 2
		opts.SnapshotDir = t.TempDir()
		srv := startServer(t, opts)
		c := dial(t, srv)
		for k := 0; k < keys; k++ {
			seed(c, k)
		}
		c.expect(t, "SAVE", "OK")

		stop := make(chan struct{})
		errc := make(chan error, 4)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				conn, err := net.Dial("tcp", srv.Addr().String())
				if err != nil {
					errc <- err
					return
				}
				defer conn.Close()
				r := bufio.NewReader(conn)
				w := bufio.NewWriter(conn)
				for base := g; ; base = (base + 41) % keys {
					select {
					case <-stop:
						return
					default:
					}
					for i := 0; i < depth; i++ {
						line, _ := read((base + i) % keys)
						fmt.Fprintf(w, "%s\n", line)
					}
					if err := w.Flush(); err != nil {
						errc <- err
						return
					}
					conn.SetReadDeadline(time.Now().Add(5 * time.Second))
					for i := 0; i < depth; i++ {
						line, want := read((base + i) % keys)
						reply, err := r.ReadString('\n')
						if err != nil {
							errc <- fmt.Errorf("%s: %v", line, err)
							return
						}
						if got := strings.TrimSuffix(reply, "\n"); got != want {
							errc <- fmt.Errorf("%s → %q, want %q (torn restore observed)", line, got, want)
							return
						}
					}
				}
			}(g)
		}
		for i := 0; i < 40; i++ {
			c.expect(t, "RESTORE "+snapFile, "OK")
		}
		close(stop)
		wg.Wait()
		select {
		case err := <-errc:
			t.Fatalf("reader: %v", err)
		default:
		}
	}

	t.Run("set-lockfree", func(t *testing.T) {
		run(t, Options{Set: "lockfree", Txn: "off"},
			func(c *client, k int) { c.expect(t, fmt.Sprintf("SET %d", k), "1") },
			func(k int) (string, string) { return fmt.Sprintf("GET %d", k), "1" })
	})
	t.Run("map-keyspace", func(t *testing.T) {
		run(t, Options{},
			func(c *client, k int) { c.expect(t, fmt.Sprintf("HSET k%d %d", k, k+1000), "1") },
			func(k int) (string, string) { return fmt.Sprintf("HGET k%d", k), strconv.Itoa(k + 1000) })
	})
}
