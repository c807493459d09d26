package main

import (
	"bufio"
	"context"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"amp/internal/server"
)

func TestPercentileIsNearestRank(t *testing.T) {
	v := make([]int64, 1000)
	for i := range v {
		v[i] = int64(i + 1)
	}
	for _, c := range []struct {
		p    float64
		want int64
	}{{50, 500}, {99, 990}, {99.9, 999}, {100, 1000}, {0.01, 1}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("p%v of 1..1000 = %d, want %d", c.p, got, c.want)
		}
	}
	if percentile(nil, 50) != 0 || percentile([]int64{7}, 99) != 7 {
		t.Error("percentile of an empty or single-element slice")
	}
}

func TestMedianOfSegments(t *testing.T) {
	segs := []float64{430, 470, 210, 450, 440} // one segment lost to a neighbour
	m := ofSegments(segs, "commands/s")
	if m.Value != 440 || m.Min != 210 || m.Max != 470 || len(m.Segments) != 5 {
		t.Errorf("ofSegments = %+v", m)
	}
	if median([]float64{1, 2, 3, 4}) != 2.5 || median(nil) != 0 {
		t.Error("median of an even-length or empty slice")
	}
	if got := spread(segs); math.Abs(got-260.0/440) > 1e-12 {
		t.Errorf("spread = %v", got)
	}
}

func TestSelfTimeIsDurationMinusChildCover(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "window", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "write", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "wait", Start: 20, End: 50},  // overlaps write: the union covers 10..50
		{ID: 4, Parent: 1, Name: "read", Start: 80, End: 120}, // clipped to the parent: 80..100
	}
	st := selfTimes(spans)
	if got := st["window"]; got.TotalNs != 100 || got.SelfNs != 40 || got.Count != 1 {
		t.Errorf("window self time = %+v, want total 100 self 40", got)
	}
	if got := st["wait"]; got.SelfNs != 30 {
		t.Errorf("a leaf's self time is its duration, got %+v", got)
	}
}

func fixture(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// The fixtures were captured from the binary this benchmark was written
// against (see testdata/README).
func TestParseStatsFixture(t *testing.T) {
	st, err := parseStats(string(fixture(t, "stats.txt")))
	if err != nil {
		t.Fatal(err)
	}
	if st.backend["set"] != "striped" || st.backend["queue"] != "unbounded" || st.backend["metrics-counter"] != "cas" {
		t.Errorf("backend %v", st.backend)
	}
	if st.txn["engine"] != "tl2" || st.txn["cm"] != "aggressive" {
		t.Errorf("txn %v", st.txn)
	}
	for op, want := range map[string]int64{"read.bypass": 2, "read.mailbox": 1, "shard.park": 4, "txn.commit": 3, "map.set": 1} {
		if st.op[op] != want {
			t.Errorf("op %s = %d, want %d", op, st.op[op], want)
		}
	}
	if h := st.hist["shard.batch"]; h["count"] != 3 || h["sum"] != 4 {
		t.Errorf("hist shard.batch = %v", h)
	}
	if _, err := parseStats("hello\n"); err == nil {
		t.Error("a body without backend and op lines parsed")
	}
}

func TestParseTxStatsFixture(t *testing.T) {
	commits, aborts, err := parseTxStats(strings.TrimSpace(string(fixture(t, "txstats.txt"))))
	if err != nil || commits != 3 || aborts != 0 {
		t.Errorf("commits %d aborts %d err %v", commits, aborts, err)
	}
	if _, _, err := parseTxStats("ERR transactions are disabled"); err == nil {
		t.Error("an ERR reply parsed as TXSTATS")
	}
}

func TestParseProcFixtures(t *testing.T) {
	u, s, err := parseProcStat(fixture(t, "proc_stat.txt"))
	if err != nil || u != 1.53 || s != 1.71 {
		t.Errorf("utime %v stime %v err %v, want 1.53 1.71", u, s, err)
	}
	// A command name with spaces and parentheses must not shift the fields.
	u, s, err = parseProcStat([]byte("42 (a b) c) S 1 2 3 4 5 6 7 8 9 10 300 400 0 0"))
	if err != nil || u != 3 || s != 4 {
		t.Errorf("awkward comm: utime %v stime %v err %v", u, s, err)
	}
	if _, _, err := parseProcStat([]byte("42 (x) S 1 2")); err == nil {
		t.Error("a truncated stat line parsed")
	}
	st := parseProcStatus(fixture(t, "proc_status.txt"))
	if st["VmHWM"] != 14676 || st["VmRSS"] != 14124 || st["voluntary_ctxt_switches"] != 4 {
		t.Errorf("status = VmHWM %d VmRSS %d vol %d", st["VmHWM"], st["VmRSS"], st["voluntary_ctxt_switches"])
	}
}

func TestParseMemStatsFixture(t *testing.T) {
	ms, err := parseMemStats(strings.NewReader(string(fixture(t, "vars.json"))))
	if err != nil {
		t.Fatal(err)
	}
	if ms.Mallocs == 0 || ms.TotalAlloc == 0 || ms.Mallocs > ms.TotalAlloc {
		t.Errorf("memstats = %+v", ms)
	}
	if _, err := parseMemStats(strings.NewReader(`{"cmdline":[]}`)); err == nil {
		t.Error("vars without memstats parsed")
	}
}

// replyClient is a client whose replies come from a string.
func replyClient(replies string, exact ...int64) *client {
	return &client{rd: bufio.NewReader(strings.NewReader(replies)), s: &stream{exact: exact}}
}

func TestReplyChecks(t *testing.T) {
	for _, c := range []struct {
		exp   byte
		reply string
		ok    bool
	}{
		{expInt, "1\n", true}, {expInt, "-42\r\n", true}, {expInt, "ERR no\n", false}, {expInt, "EMPTY\n", false},
		{expOK, "OK\n", true}, {expOK, "FULL\n", false},
		{expOKFull, "FULL\n", true}, {expOKFull, "ERR x\n", false},
		{expVal, "17\n", true}, {expVal, "EMPTY\n", true}, {expVal, "ERR x\n", false},
		{expQueued, "+QUEUED\n", true}, {expQueued, "ERR x\n", false},
		{expExec, "*2\n-5\n5\n", true}, {expExec, "ERR poisoned\n", false}, {expExec, "*2\n-5\nERR x\n", false},
	} {
		cl := replyClient(c.reply)
		if err := cl.check(c.exp); err != nil {
			t.Errorf("exp %d reply %q: %v", c.exp, c.reply, err)
		}
		if (cl.failed == 0) != c.ok {
			t.Errorf("exp %d reply %q: failed=%d, want ok=%v", c.exp, c.reply, cl.failed, c.ok)
		}
		if _, err := cl.rd.ReadByte(); err == nil {
			t.Errorf("exp %d reply %q: reply lines left unread", c.exp, c.reply)
		}
	}
	cl := replyClient("7\n8\n", 7, 9)
	cl.check(expExact)
	cl.check(expExact)
	if cl.failed != 1 || !strings.Contains(cl.firstErr, "want 9") {
		t.Errorf("canary mismatch: failed=%d err=%q", cl.failed, cl.firstErr)
	}
	if err := replyClient("").check(expInt); err == nil {
		t.Error("a missing reply is not an error")
	}
}

func TestContractMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Why, Unit, Better string
		Bound                   float64
	}
	var c struct {
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []entry
		EndToEnd   []entry `json:"end_to_end"`
		PerLayer   []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	if c.RunSeconds != defaultSeconds || len(c.Paths) != 1 || c.Paths[0] != "benchmark" {
		t.Errorf("run_seconds %d paths %v", c.RunSeconds, c.Paths)
	}
	if len(c.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d specs", len(c.Workloads), len(specs))
	}
	for i, w := range c.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why || len(w.Why) > 200 {
			t.Errorf("workload %d is %q (%q, %d chars), spec is %q (%q)", i, w.Name, w.Why, len(w.Why), specs[i].name, specs[i].why)
		}
	}
	same := func(kind string, got []entry, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in main.go", kind, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			better := map[bool]string{true: "higher", false: "lower"}[w.Higher]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != better || bounded && g.Bound != w.Bound {
				t.Errorf("%s %d: BENCHMARK.json has %+v, main.go has %+v", kind, i, g, w)
			}
		}
	}
	same("end_to_end", c.EndToEnd, endToEnd, true)
	same("per_layer", c.PerLayer, perLayer, false)
}

// TestSmokeAgainstInProcessServer drives every workload's stream, canaries
// included, through the real protocol for a moment: every generated line
// must get the reply its expectation allows.
func TestSmokeAgainstInProcessServer(t *testing.T) {
	if testing.Short() {
		t.Skip("starts an in-process server")
	}
	srv, err := server.New(server.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-done
	}()
	for i := range specs {
		sp := &specs[i]
		s := newGen(sp, 1, 0).generate(3000/sp.depth + 1)
		c, err := dial(srv.Addr().String(), 0, s)
		if err != nil {
			t.Fatal(err)
		}
		err = c.sendAll()
		c.conn.Close()
		if err != nil || c.failed != 0 || c.attempted != int64(len(s.exp)) || c.exactAt != len(s.exact) {
			t.Errorf("%s: err %v, %d of %d failed (%s), %d of %d canary values checked", sp.name, err, c.failed, c.attempted, c.firstErr, c.exactAt, len(s.exact))
		}
	}
}
