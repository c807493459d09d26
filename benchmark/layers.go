package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"sync"
	"time"

	"amp/internal/snapshot"
)

func p50us(ns []int64) float64 {
	slices.Sort(ns)
	return float64(percentile(ns, 50)) / 1e3
}

// clientLayers reduces the generator's own spans: the pooled p99 and max over
// every measured window, the write/wait/read children over the traced ones, and
// the cost of tracing as traced ÷ untraced segment throughput.
func clientLayers(l *layers, tr *tracer, segIDs []int, b []boundary, clients []*client, segs segStats) {
	l.set("client.windows", float64(len(segs.all)), "count")
	l.vals["client.window_p99_us"] = metric{Value: float64(percentile(segs.all, 99)) / 1e3, Unit: "us", Samples: len(segs.all)}
	l.set("client.window_max_us", float64(percentile(segs.all, 100))/1e3, "us")

	var write, wait, read []int64
	traced := 0
	for _, c := range clients {
		for _, sm := range c.samples {
			if sm.wait > 0 {
				traced++
			}
		}
	}
	every := max(traced/traceWinCap, 1)
	n := 0
	for _, c := range clients {
		seg := 0
		for seq, sm := range c.samples {
			if sm.wait == 0 {
				continue
			}
			for seg < segments-1 && sm.end >= b[seg+1].at {
				seg++
			}
			write = append(write, sm.write)
			wait = append(wait, sm.wait-sm.write)
			read = append(read, sm.end-sm.start-sm.wait)
			if n++; n%every != 0 {
				continue
			}
			ref := strconv.Itoa(c.id) + ":" + strconv.Itoa(seq)
			w := tr.add(segIDs[seg], "client.window", ref, sm.start, sm.end)
			tr.add(w, "client.write", ref, sm.start, sm.start+sm.write)
			tr.add(w, "client.wait", ref, sm.start+sm.write, sm.start+sm.wait)
			tr.add(w, "client.read", ref, sm.start+sm.wait, sm.end)
		}
	}
	if len(write) > 0 {
		l.set("client.write_p50_us", p50us(write), "us")
		l.set("client.wait_p50_us", p50us(wait), "us")
		l.set("client.read_p50_us", p50us(read), "us")
	}
	var on, off []float64
	for i, t := range segs.tput {
		if i%2 == 1 {
			on = append(on, t)
		} else {
			off = append(off, t)
		}
	}
	l.set("trace.overhead_ratio", median(on)/median(off), "ratio")
}

// serverLayers turns the STATS deltas over measured time into the
// internal/server ratios; it returns server.batch_mean (0 if absent).
func serverLayers(l *layers, a, b *serverStats, ops float64) float64 {
	delta := func(name string) (float64, bool) {
		x, ok1 := a.op[name]
		y, ok2 := b.op[name]
		return float64(y - x), ok1 && ok2
	}
	ratio := func(metric, num, other string) {
		n, ok1 := delta(num)
		o, ok2 := delta(other)
		switch {
		case !ok1 || !ok2:
			l.miss(fmt.Sprintf("STATS has no op %s / %s", num, other), metric)
		case n+o == 0:
			l.miss(fmt.Sprintf("neither %s nor %s moved during the run", num, other), metric)
		default:
			l.set(metric, n/(n+o), "ratio")
		}
	}
	ratio("server.read_bypass_ratio", "read.bypass", "read.mailbox")
	ratio("server.combine_caller_ratio", "shard.combine.caller", "shard.combine.shard")
	for metric, op := range map[string]string{"server.parks_per_kop": "shard.park", "server.spins_per_kop": "shard.spin"} {
		if d, ok := delta(op); ok {
			l.set(metric, d*1e3/ops, "1/kop")
		} else {
			l.miss("STATS has no op "+op, metric)
		}
	}
	ha, hb := a.hist["shard.batch"], b.hist["shard.batch"]
	if ha == nil || hb == nil || hb["count"] == ha["count"] {
		l.miss("STATS hist shard.batch is missing or did not move", "server.batch_mean", "mailbox.handoff_share")
		return 0
	}
	mean := float64(hb["sum"]-ha["sum"]) / float64(hb["count"]-ha["count"])
	l.set("server.batch_mean", mean, "cmds")
	return mean
}

// saver is the control connection that issues SAVE on a fixed cadence
// while the load runs.
type saver struct {
	ctl    *control
	wg     sync.WaitGroup
	rtts   [][2]int64 // start, end of each answered SAVE
	failed int64
}

func startSaver(addr string, every time.Duration, now func() int64, rc *runCtl) (*saver, error) {
	ctl, err := dialControl(addr)
	if err != nil {
		return nil, err
	}
	s := &saver{ctl: ctl}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		next := time.Now()
		for !rc.stop.Load() {
			if time.Now().Before(next) {
				time.Sleep(10 * time.Millisecond)
				continue
			}
			next = next.Add(every)
			t0 := now()
			reply, err := ctl.one("SAVE")
			if err != nil || reply != "OK" {
				s.failed++
				continue
			}
			s.rtts = append(s.rtts, [2]int64{t0, now()})
		}
	}()
	return s, nil
}

func (s *saver) wait() {
	s.wg.Wait()
	s.ctl.close()
}

func (s *saver) layers(l *layers, tr *tracer, root int, clients []*client) {
	var rtt []float64
	for _, r := range s.rtts {
		tr.add(root, "control.save", "", r[0], r[1])
		rtt = append(rtt, float64(r[1]-r[0])/1e6)
	}
	l.set("snapshot.saves", float64(len(s.rtts)), "count")
	l.set("snapshot.save_rtt_ms", median(rtt), "ms")
	var during []int64
	for _, c := range clients {
		at := 0 // SAVEs and samples are both in time order
		for _, sm := range c.samples {
			for at < len(s.rtts) && s.rtts[at][1] < sm.start {
				at++
			}
			if at < len(s.rtts) && s.rtts[at][0] < sm.end {
				during = append(during, sm.end-sm.start)
			}
		}
	}
	if len(during) > 0 {
		l.set("snapshot.save_window_p50_us", p50us(during), "us")
	} else {
		l.miss("no measured window overlapped a SAVE", "snapshot.save_window_p50_us")
	}
}

// count reports how many answered command lines carried expectation code.
func (c *client) count(code byte) int64 {
	n := func(exp []byte) int64 { return int64(bytes.Count(exp, []byte{code})) }
	return n(c.s.exp[:c.line]) + int64(c.wraps)*n(c.s.exp)
}

// checkTransfers holds txn-transfer's invariants: transfers move money,
// never make it, and every acknowledged EXEC committed exactly once.
func checkTransfers(res *result, sp *spec, ctl *control, clients []*client, commits0 int64, txErr error) {
	keys := sp.keys
	var cmds []byte
	for k := 0; k < keys; k++ {
		cmds = append(appendMapKey(append(cmds, "HGET "...), int64(k)), '\n')
	}
	replies, err := ctl.send(cmds, keys)
	var sum int64
	for _, r := range replies {
		v, convErr := strconv.ParseInt(r, 10, 64)
		if convErr != nil {
			err = fmt.Errorf("balance reply %q", r)
		}
		sum += v
	}
	res.invariant(err == nil && sum == 0, "txn-transfer: balances sum to %d, want 0 (%v)", sum, err)

	commits1, _, err := txStats(ctl)
	var execs, canaries int64
	for _, c := range clients {
		execs += c.count(expExec)
		canaries += c.count(expExact)
	}
	// Single-key canary commands may commit through the same engine, so
	// the count is exact only up to their number (1% of lines).
	got := commits1 - commits0
	res.invariant(txErr == nil && err == nil && got >= execs && got <= execs+canaries,
		"txn-transfer: TXSTATS commits moved by %d for %d acknowledged EXECs (+ at most %d canary commands) (%v %v)", got, execs, canaries, txErr, err)
}

// checkSnapshot takes a final SAVE with the load stopped and holds the
// file against the live server on a 1000-key sample.
func checkSnapshot(res *result, sp *spec, ctl *control, path string, seed int64) {
	reply, err := ctl.one("SAVE")
	if err != nil || reply != "OK" {
		res.invariant(false, "save-restore: final SAVE answered %q (%v)", reply, err)
		return
	}
	st, err := snapshot.Read(path)
	if err != nil {
		res.invariant(false, "save-restore: final snapshot does not read back: %v", err)
		return
	}
	if fi, err := os.Stat(path); err == nil {
		res.Metrics["snapshot.bytes_per_key"] = metric{Value: float64(fi.Size()) / float64(max(len(st.Set)+len(st.Map), 1)), Unit: "B"}
	}
	inSet := make(map[int64]bool, len(st.Set))
	for _, k := range st.Set {
		inSet[k] = true
	}
	inMap := make(map[string]int64, len(st.Map))
	for _, e := range st.Map {
		inMap[e.Key] = e.Val
	}
	rng := rand.New(rand.NewSource(seed))
	var cmds []byte
	var want []string
	for i := 0; i < 500; i++ {
		k := int64(rng.Intn(sp.keys))
		cmds = append(strconv.AppendInt(append(cmds, "GET "...), k, 10), '\n')
		want = append(want, map[bool]string{true: "1", false: "0"}[inSet[k]])
		key := string(appendMapKey(nil, int64(rng.Intn(sp.keys))))
		cmds = append(append(append(cmds, "HGET "...), key...), '\n')
		if v, ok := inMap[key]; ok {
			want = append(want, strconv.FormatInt(v, 10))
		} else {
			want = append(want, "EMPTY")
		}
	}
	replies, err := ctl.send(cmds, len(want))
	bad := 0
	for i, r := range replies {
		if r != want[i] {
			bad++
		}
	}
	res.invariant(err == nil && bad == 0 && len(replies) == len(want),
		"save-restore: %d of %d sampled keys differ between the final snapshot and the live server (%v)", bad, len(want), err)
}

// bands checks that a traced run stressed what its workload claims to.
func bands(sp *spec, res *result) []band {
	var out []band
	val := func(name string) (float64, bool) {
		m, ok := res.Metrics[name]
		return m.Value, ok
	}
	check := func(name string, ok bool, format string, args ...any) {
		out = append(out, band{Name: name, OK: ok, Got: fmt.Sprintf(format, args...)})
	}
	if v, ok := val("trace.overhead_ratio"); ok {
		check("trace.overhead_ratio >= 0.9", v >= 0.9, "%.3f", v)
	}
	switch sp.name {
	case "rtt-mixed":
		if v, ok := val("server.batch_mean"); ok {
			check("server.batch_mean < 1.1", v < 1.1, "%.3f", v)
		}
		u, _ := val("ampserved.cpu_user_us_per_op")
		s, _ := val("ampserved.cpu_sys_us_per_op")
		check("sys share of server CPU >= 0.5", s/(u+s) >= 0.5, "%.3f", s/(u+s))
	case "pipe-read-hot":
		if v, ok := val("server.read_bypass_ratio"); ok {
			check("server.read_bypass_ratio in [0.5, 0.7]", v >= 0.5 && v <= 0.7, "%.3f", v)
		}
	case "txn-transfer":
		v, _ := val("txn.commits_s")
		check("txn.commits_s > 0 and balances sum to 0", v > 0 && res.Failed == 0, "%.0f commits/s, %d failed", v, res.Failed)
	case "save-restore":
		v, _ := val("snapshot.saves")
		check("snapshot.saves >= 8 and final snapshot verified", v >= 8 && res.Failed == 0, "%.0f saves, %d failed", v, res.Failed)
	}
	return out
}
