// Phases mode: ampbench -serve-addr ... -mode phases replays a workload
// whose character shifts mid-run — read↔write mix swings crossed with
// hot↔cold key churn — against a running ampserved. This is the probe
// for the adaptive backends (-map adaptive -txn off): a fixed backend is
// tuned for one phase and pays for it in the others, while the adaptive
// backend should morph at each boundary and track the per-phase winner.
// Connections persist across phases (morphing must not depend on
// reconnects), each phase reports its own ops/sec and latency, and the
// run ends with the whole-run rate plus the server's morph STATS rows —
// the evidence that flips actually happened (EXPERIMENTS.md E20).
package main

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sort"
	"strings"
	"sync"
	"time"
)

// phaseSpec is one leg of the schedule: a read percentage and a key
// regime. Hot phases hammer a 16-key working set (few shards, maximal
// per-structure contention); cold phases spray the whole -keys space.
type phaseSpec struct {
	name    string
	readPct int
	hot     bool
}

// phaseSchedule swings both axes: mix (write-heavy ↔ read-heavy) and
// working set (hot ↔ cold). Each transition is a regime the adaptive
// controller should answer with a morph — to the read member at the
// write→read edges, back to coarse at the read→write edges.
var phaseSchedule = []phaseSpec{
	{name: "write-hot", readPct: 10, hot: true},
	{name: "read-hot", readPct: 95, hot: true},
	{name: "write-cold", readPct: 10, hot: false},
	{name: "read-cold", readPct: 95, hot: false},
}

// hotKeys is the hot phases' working-set size.
const hotKeys = 16

// phaseClient is one persistent connection reused across every phase.
type phaseClient struct {
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
	rng  *rand.Rand
}

// phaseResult carries one phase's aggregate measurements.
type phaseResult struct {
	name    string
	ops     int
	elapsed time.Duration
	lat     []time.Duration
}

// runPhases executes the phase schedule and prints per-phase rates, the
// whole-run rate, and the server's morph STATS rows.
func runPhases(cfg loadConfig, out io.Writer) error {
	depth := cfg.depth
	if depth < 1 {
		depth = 1
	}

	clients := make([]*phaseClient, cfg.clients)
	for id := range clients {
		conn, err := net.Dial("tcp", cfg.addr)
		if err != nil {
			return fmt.Errorf("phases: dial client %d: %w", id, err)
		}
		defer conn.Close()
		clients[id] = &phaseClient{
			conn: conn,
			r:    bufio.NewReader(conn),
			w:    bufio.NewWriter(conn),
			rng:  rand.New(rand.NewSource(int64(id)*104729 + 7)),
		}
	}

	fmt.Fprintf(out, "ampbench phases: addr=%s clients=%d ops/client/phase=%d depth=%d keys=%d\n",
		cfg.addr, cfg.clients, cfg.ops, depth, cfg.keys)

	var total int
	var wall time.Duration
	for _, phase := range phaseSchedule {
		res, err := runPhase(cfg, clients, phase, depth)
		if err != nil {
			return err
		}
		total += res.ops
		wall += res.elapsed
		sort.Slice(res.lat, func(i, j int) bool { return res.lat[i] < res.lat[j] })
		fmt.Fprintf(out, "  phase %-10s reads=%2d%% keyspace=%-5d %8d ops in %8v → %9.0f ops/sec  p50=%v p99=%v\n",
			res.name, phase.readPct, phaseKeyspace(phase, cfg.keys), res.ops,
			res.elapsed.Round(time.Millisecond), float64(res.ops)/res.elapsed.Seconds(),
			quantile(res.lat, 0.50), quantile(res.lat, 0.99))
	}
	fmt.Fprintf(out, "  whole-run: %d ops in %v → %.0f ops/sec\n",
		total, wall.Round(time.Millisecond), float64(total)/wall.Seconds())

	return printMorphStats(cfg, out)
}

// phaseKeyspace reports the keys a phase actually draws from.
func phaseKeyspace(p phaseSpec, keys int) int {
	if p.hot {
		return hotKeys
	}
	return keys
}

// runPhase drives every client through one phase concurrently and merges
// their measurements.
func runPhase(cfg loadConfig, clients []*phaseClient, phase phaseSpec, depth int) (phaseResult, error) {
	results := make([]clientResult, len(clients))
	start := time.Now()
	var wg sync.WaitGroup
	for id, c := range clients {
		wg.Add(1)
		go func(id int, c *phaseClient) {
			defer wg.Done()
			results[id] = runPhaseClient(cfg, c, phase, depth, id)
		}(id, c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	res := phaseResult{name: phase.name, elapsed: elapsed}
	for id, r := range results {
		if r.err != nil {
			return res, fmt.Errorf("phases: phase %s client %d: %w", phase.name, id, r.err)
		}
		res.ops += len(r.lat)
		res.lat = append(res.lat, r.lat...)
	}
	return res, nil
}

// runPhaseClient replays cfg.ops string-map commands for one phase over
// the client's persistent connection, pipelined at depth.
func runPhaseClient(cfg loadConfig, c *phaseClient, phase phaseSpec, depth, id int) clientResult {
	lat := make([]time.Duration, 0, cfg.ops)
	base := 1_000_000 * (id + 1)
	window := make([]string, 0, depth)
	for sent := 0; sent < cfg.ops; sent += len(window) {
		window = window[:0]
		for i := sent; i < cfg.ops && len(window) < depth; i++ {
			window = append(window, phaseCommand(c.rng, phase, cfg.keys, base+i))
		}
		begin := time.Now()
		for _, cmd := range window {
			c.w.WriteString(cmd)
			c.w.WriteByte('\n')
		}
		if err := c.w.Flush(); err != nil {
			return clientResult{err: fmt.Errorf("write window at %d: %w", sent, err)}
		}
		c.conn.SetReadDeadline(time.Now().Add(cfg.timeout))
		for _, cmd := range window {
			line, err := c.r.ReadString('\n')
			if err != nil {
				return clientResult{err: fmt.Errorf("read reply to %q: %w", cmd, err)}
			}
			if strings.HasPrefix(line, "ERR") {
				return clientResult{err: fmt.Errorf("%q → %s", cmd, strings.TrimSpace(line))}
			}
		}
		d := time.Since(begin)
		for range window {
			lat = append(lat, d)
		}
	}
	return clientResult{lat: lat}
}

// phaseCommand draws one HGET/HSET/HDEL at the phase's read percentage
// over the phase's key regime; writes split 2:1 insert:delete so reads
// keep finding keys.
func phaseCommand(rng *rand.Rand, phase phaseSpec, keys, v int) string {
	span := phaseKeyspace(phase, keys)
	key := rng.Intn(span)
	switch {
	case rng.Intn(100) < phase.readPct:
		return fmt.Sprintf("HGET key:%d", key)
	case rng.Intn(3) < 2:
		return fmt.Sprintf("HSET key:%d %d", key, v)
	default:
		return fmt.Sprintf("HDEL key:%d", key)
	}
}

// printMorphStats asks the server for STATS and relays the morph rows —
// live-member census, flip count, and the edges taken. On a fixed
// backend the state reads "fixed" with flips=0, which is exactly the
// comparison E20 wants visible next to the rates.
func printMorphStats(cfg loadConfig, out io.Writer) error {
	conn, err := net.Dial("tcp", cfg.addr)
	if err != nil {
		return fmt.Errorf("phases: STATS: %w", err)
	}
	defer conn.Close()
	if _, err := fmt.Fprintf(conn, "STATS\n"); err != nil {
		return fmt.Errorf("phases: STATS: %w", err)
	}
	r := bufio.NewReader(conn)
	for {
		conn.SetReadDeadline(time.Now().Add(cfg.timeout))
		line, err := r.ReadString('\n')
		if err != nil {
			return fmt.Errorf("phases: STATS: %w", err)
		}
		line = strings.TrimSpace(line)
		if line == "END" {
			return nil
		}
		if strings.HasPrefix(line, "morph ") {
			fmt.Fprintf(out, "  server %s\n", line)
		}
	}
}
