// Load-generator mode: ampbench -serve-addr drives a running ampserved
// over TCP with concurrent clients and reports throughput and latency
// percentiles, closing the loop between the in-process experiments
// (E1–E14) and the served system. With -depth N each client pipelines:
// it keeps N commands in flight and the server batches them through its
// flat-combining shards (experiment E15).
package main

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"amp/internal/server"
)

// loadConfig parameterizes one load run.
type loadConfig struct {
	addr    string
	clients int
	ops     int    // per client
	depth   int    // pipeline depth: commands (or transactions) in flight
	mode    string // "mix" (all families), "map" (string keys), "txn" (MULTI/EXEC transfers)
	keys    int    // map/txn mode: size of the string key (account) space
	txnSize int    // txn mode: staged commands per transaction
	mix     string // read:write ratio like "90:10"; empty = mode's default mix
	timeout time.Duration
}

// parseMix turns "R:W" into a read percentage. The two weights need not
// sum to 100 — "9:1" and "90:10" are the same mix.
func parseMix(mix string) (int, error) {
	r, w, ok := strings.Cut(mix, ":")
	if !ok {
		return 0, fmt.Errorf("mix %q must be R:W (e.g. 90:10)", mix)
	}
	ri, err1 := strconv.Atoi(r)
	wi, err2 := strconv.Atoi(w)
	if err1 != nil || err2 != nil || ri < 0 || wi < 0 || ri+wi == 0 {
		return 0, fmt.Errorf("mix %q must be R:W with non-negative weights", mix)
	}
	return 100 * ri / (ri + wi), nil
}

// loadMix is the command cycle every client replays; it touches all six
// command families. %d is the client's key/value cursor.
var loadMix = []string{
	"SET %d", "GET %d", "DEL %d",
	"ENQ %d", "DEQ",
	"PUSH %d", "POP",
	"INC", "READ",
	"PQADD %d", "PQMIN",
}

// clientResult carries one client's measurements.
type clientResult struct {
	lat []time.Duration
	err error
}

// runLoad executes the load and prints a summary.
func runLoad(cfg loadConfig, out io.Writer) error {
	if cfg.clients <= 0 || cfg.ops <= 0 {
		return fmt.Errorf("clients (%d) and ops (%d) must be positive", cfg.clients, cfg.ops)
	}
	if cfg.timeout <= 0 {
		cfg.timeout = 10 * time.Second
	}
	switch cfg.mode {
	case "", "mix", "map", "txn":
	case "snapshot":
		if cfg.keys <= 0 {
			return fmt.Errorf("keys (%d) must be positive in snapshot mode", cfg.keys)
		}
		if cfg.mix != "" {
			return fmt.Errorf("-mix does not apply to snapshot mode (the segments fix the ratio)")
		}
		return runSnapshot(cfg, out)
	default:
		return fmt.Errorf("unknown load mode %q (have mix, map, txn, snapshot)", cfg.mode)
	}
	if (cfg.mode == "map" || cfg.mode == "txn") && cfg.keys <= 0 {
		return fmt.Errorf("keys (%d) must be positive in %s mode", cfg.keys, cfg.mode)
	}
	if cfg.mode == "txn" && (cfg.txnSize < 2 || cfg.txnSize > server.MaxTxnOps) {
		return fmt.Errorf("txn-size (%d) must be in 2..%d", cfg.txnSize, server.MaxTxnOps)
	}
	if cfg.mix != "" {
		if cfg.mode == "txn" {
			return fmt.Errorf("-mix does not apply to txn mode")
		}
		if _, err := parseMix(cfg.mix); err != nil {
			return err
		}
		if cfg.keys <= 0 {
			return fmt.Errorf("keys (%d) must be positive with -mix", cfg.keys)
		}
	}

	var baseline int64
	if cfg.mode == "txn" {
		b, err := sumBalances(cfg)
		if err != nil {
			return err
		}
		baseline = b
	}

	results := make([]clientResult, cfg.clients)
	start := time.Now()
	var wg sync.WaitGroup
	for id := 0; id < cfg.clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			results[id] = runClient(cfg, id)
		}(id)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var all []time.Duration
	for id, r := range results {
		if r.err != nil {
			return fmt.Errorf("client %d: %w", id, r.err)
		}
		all = append(all, r.lat...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })

	total := len(all)
	opsPerSec := float64(total) / elapsed.Seconds()
	depth := cfg.depth
	if depth < 1 {
		depth = 1
	}
	mode := cfg.mode
	if mode == "" {
		mode = "mix"
	}
	fmt.Fprintf(out, "ampbench load: addr=%s mode=%s clients=%d ops/client=%d depth=%d",
		cfg.addr, mode, cfg.clients, cfg.ops, depth)
	if mode == "map" {
		fmt.Fprintf(out, " keys=%d", cfg.keys)
	}
	if mode == "txn" {
		fmt.Fprintf(out, " keys=%d txn-size=%d", cfg.keys, cfg.txnSize)
	}
	if cfg.mix != "" {
		fmt.Fprintf(out, " mix=%s", cfg.mix)
	}
	fmt.Fprintln(out)
	unit := "ops"
	if mode == "txn" {
		unit = "txns"
	}
	fmt.Fprintf(out, "  %d %s in %v → %.0f %s/sec\n", total, unit, elapsed.Round(time.Millisecond), opsPerSec, unit)
	fmt.Fprintf(out, "  latency p50=%v p99=%v p99.9=%v max=%v\n",
		quantile(all, 0.50), quantile(all, 0.99), quantile(all, 0.999), all[total-1])
	if mode == "txn" {
		return verifyTxnInvariant(cfg, baseline, out)
	}
	return nil
}

// sumBalances reads every acct:N key over one connection and returns the
// sum of their balances (absent accounts count 0).
func sumBalances(cfg loadConfig) (int64, error) {
	conn, err := net.Dial("tcp", cfg.addr)
	if err != nil {
		return 0, fmt.Errorf("invariant check: %w", err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)

	var sum int64
	const chunk = 256 // bounded pipelining so neither side's buffer fills
	for base := 0; base < cfg.keys; base += chunk {
		end := base + chunk
		if end > cfg.keys {
			end = cfg.keys
		}
		for a := base; a < end; a++ {
			fmt.Fprintf(w, "HGET acct:%d\n", a)
		}
		if err := w.Flush(); err != nil {
			return 0, fmt.Errorf("invariant check: %w", err)
		}
		conn.SetReadDeadline(time.Now().Add(cfg.timeout))
		for a := base; a < end; a++ {
			line, err := r.ReadString('\n')
			if err != nil {
				return 0, fmt.Errorf("invariant check acct:%d: %w", a, err)
			}
			line = strings.TrimSpace(line)
			if line == "EMPTY" {
				continue
			}
			v, err := strconv.ParseInt(line, 10, 64)
			if err != nil {
				return 0, fmt.Errorf("invariant check acct:%d: reply %q", a, line)
			}
			sum += v
		}
	}
	return sum, nil
}

// verifyTxnInvariant reads every account after the load quiesces: the
// transfers only move value between accounts, so an atomic keyspace must
// leave sum(balances) exactly where the pre-run baseline snapshot found
// it — a torn transaction shows up as a nonzero delta. The baseline makes
// back-to-back runs against one server independent (a prior run with a
// different -keys leaves individual accounts nonzero even though its own
// sum is balanced).
func verifyTxnInvariant(cfg loadConfig, baseline int64, out io.Writer) error {
	sum, err := sumBalances(cfg)
	if err != nil {
		return err
	}

	conn, err := net.Dial("tcp", cfg.addr)
	if err != nil {
		return fmt.Errorf("invariant check: %w", err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "TXSTATS\n")
	conn.SetReadDeadline(time.Now().Add(cfg.timeout))
	txstats, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		return fmt.Errorf("invariant check: TXSTATS: %w", err)
	}
	fmt.Fprintf(out, "  txstats: %s\n", strings.TrimSpace(txstats))
	delta := sum - baseline
	fmt.Fprintf(out, "  invariant: sum(balances)=%d over %d accounts (baseline %d, delta %d)\n",
		sum, cfg.keys, baseline, delta)
	if delta != 0 {
		return fmt.Errorf("txn invariant violated: sum(balances) changed by %d across the run, want 0", delta)
	}
	return nil
}

// runClient opens one connection and replays the mix with cfg.depth
// commands in flight: each round writes a window of commands in one
// flush, then reads the window's replies. Latency is recorded per
// command as the round-trip of its window — at depth 1 this is exactly
// the old per-command round-trip.
func runClient(cfg loadConfig, id int) clientResult {
	if cfg.mode == "txn" {
		return runTxnClient(cfg, id)
	}
	conn, err := net.Dial("tcp", cfg.addr)
	if err != nil {
		return clientResult{err: err}
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	depth := cfg.depth
	if depth < 1 {
		depth = 1
	}

	// Map mode replays Zipf-popular string keys: a few hot keys absorb
	// most of the traffic (the realistic cache-like skew), while the tail
	// still sprays every shard. Each client seeds its own generator so
	// runs are reproducible without being identical across clients.
	var rng *rand.Rand
	var zipf *rand.Zipf
	readPct := -1
	if cfg.mode == "map" || cfg.mix != "" {
		rng = rand.New(rand.NewSource(int64(id)*104729 + 7))
	}
	if cfg.mode == "map" {
		zipf = rand.NewZipf(rng, 1.2, 1, uint64(cfg.keys-1))
	}
	if cfg.mix != "" {
		readPct, _ = parseMix(cfg.mix) // validated by runLoad
	}

	lat := make([]time.Duration, 0, cfg.ops)
	base := 1_000_000 * (id + 1)
	window := make([]string, 0, depth)
	for sent := 0; sent < cfg.ops; sent += len(window) {
		window = window[:0]
		for i := sent; i < cfg.ops && len(window) < depth; i++ {
			var cmd string
			switch {
			case readPct >= 0:
				cmd = ratioCommand(rng, zipf, readPct, cfg.keys, base+i)
			case zipf != nil:
				cmd = mapCommand(rng, zipf, base+i)
			default:
				tmpl := loadMix[i%len(loadMix)]
				cmd = tmpl
				if strings.Contains(tmpl, "%d") {
					arg := base + i
					if strings.HasPrefix(tmpl, "PQADD") {
						// Stay inside the priority range of even tightly
						// configured bounded backends (-pq-cap >= 8).
						arg = i % 8
					}
					cmd = fmt.Sprintf(tmpl, arg)
				}
			}
			window = append(window, cmd)
		}

		begin := time.Now()
		for _, cmd := range window {
			w.WriteString(cmd)
			w.WriteByte('\n')
		}
		if err := w.Flush(); err != nil {
			return clientResult{err: fmt.Errorf("write window at %d: %w", sent, err)}
		}
		conn.SetReadDeadline(time.Now().Add(cfg.timeout))
		for _, cmd := range window {
			line, err := r.ReadString('\n')
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

// runTxnClient replays cfg.ops MULTI/EXEC transfer transactions, keeping
// cfg.depth whole transactions in flight per connection. Each transaction
// stages cfg.txnSize commands: balanced ±d HINCR pairs over random account
// pairs (an odd size adds a trailing HGET), so the global balance sum
// stays zero exactly when the server commits atomically. Latency is the
// round-trip of a transaction's window.
func runTxnClient(cfg loadConfig, id int) clientResult {
	conn, err := net.Dial("tcp", cfg.addr)
	if err != nil {
		return clientResult{err: err}
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	depth := cfg.depth
	if depth < 1 {
		depth = 1
	}
	rng := rand.New(rand.NewSource(int64(id)*104729 + 7))

	// Per-transaction reply shape: OK, txnSize × +QUEUED, *N, N values.
	readTxn := func() error {
		line, err := r.ReadString('\n')
		if err != nil {
			return err
		}
		if got := strings.TrimSpace(line); got != "OK" {
			return fmt.Errorf("MULTI → %q", got)
		}
		for i := 0; i < cfg.txnSize; i++ {
			line, err := r.ReadString('\n')
			if err != nil {
				return err
			}
			if got := strings.TrimSpace(line); got != "+QUEUED" {
				return fmt.Errorf("staged %d → %q", i, got)
			}
		}
		line, err = r.ReadString('\n')
		if err != nil {
			return err
		}
		if want := "*" + strconv.Itoa(cfg.txnSize); strings.TrimSpace(line) != want {
			return fmt.Errorf("EXEC → %q, want %q", strings.TrimSpace(line), want)
		}
		for i := 0; i < cfg.txnSize; i++ {
			line, err := r.ReadString('\n')
			if err != nil {
				return err
			}
			if strings.HasPrefix(line, "ERR") {
				return fmt.Errorf("EXEC reply %d → %s", i, strings.TrimSpace(line))
			}
		}
		return nil
	}

	lat := make([]time.Duration, 0, cfg.ops)
	for sent := 0; sent < cfg.ops; {
		batch := depth
		if rem := cfg.ops - sent; batch > rem {
			batch = rem
		}
		begin := time.Now()
		for t := 0; t < batch; t++ {
			w.WriteString("MULTI\n")
			for _, cmd := range txnCommands(rng, cfg.keys, cfg.txnSize) {
				w.WriteString(cmd)
				w.WriteByte('\n')
			}
			w.WriteString("EXEC\n")
		}
		if err := w.Flush(); err != nil {
			return clientResult{err: fmt.Errorf("write txn window at %d: %w", sent, err)}
		}
		conn.SetReadDeadline(time.Now().Add(cfg.timeout))
		for t := 0; t < batch; t++ {
			if err := readTxn(); err != nil {
				return clientResult{err: fmt.Errorf("txn %d: %w", sent+t, err)}
			}
		}
		d := time.Since(begin)
		for t := 0; t < batch; t++ {
			lat = append(lat, d)
		}
		sent += batch
	}
	return clientResult{lat: lat}
}

// txnCommands builds one transaction body: balanced transfer pairs, with
// a trailing read when size is odd.
func txnCommands(rng *rand.Rand, accounts, size int) []string {
	cmds := make([]string, 0, size)
	for len(cmds)+1 < size {
		src, dst := rng.Intn(accounts), rng.Intn(accounts)
		d := 1 + rng.Intn(9)
		cmds = append(cmds,
			fmt.Sprintf("HINCR acct:%d %d", src, d),
			fmt.Sprintf("HINCR acct:%d -%d", dst, d))
	}
	if len(cmds) < size {
		cmds = append(cmds, fmt.Sprintf("HGET acct:%d", rng.Intn(accounts)))
	}
	return cmds
}

// ratioCommand draws one command at a fixed read percentage (-mix R:W):
// in map mode (zipf != nil) HGET vs HSET/HDEL over Zipf string keys, in
// the default mode GET vs SET/DEL over a uniform [0,keys) integer space.
// Writes split 2:1 insert:delete so the structure stays populated and
// reads keep finding keys.
func ratioCommand(rng *rand.Rand, zipf *rand.Zipf, readPct, keys, v int) string {
	read := rng.Intn(100) < readPct
	if zipf != nil {
		key := zipf.Uint64()
		switch {
		case read:
			return fmt.Sprintf("HGET key:%d", key)
		case rng.Intn(3) < 2:
			return fmt.Sprintf("HSET key:%d %d", key, v)
		default:
			return fmt.Sprintf("HDEL key:%d", key)
		}
	}
	key := rng.Intn(keys)
	switch {
	case read:
		return fmt.Sprintf("GET %d", key)
	case rng.Intn(3) < 2:
		return fmt.Sprintf("SET %d", key)
	default:
		return fmt.Sprintf("DEL %d", key)
	}
}

// mapCommand draws one string-map command: a Zipf-popular key with a
// write-heavy verb mix (50% HSET, 30% HGET, 20% HDEL), value v.
func mapCommand(rng *rand.Rand, zipf *rand.Zipf, v int) string {
	key := zipf.Uint64()
	switch r := rng.Intn(10); {
	case r < 5:
		return fmt.Sprintf("HSET key:%d %d", key, v)
	case r < 8:
		return fmt.Sprintf("HGET key:%d", key)
	default:
		return fmt.Sprintf("HDEL key:%d", key)
	}
}

// quantile reads the q-quantile from a sorted sample.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}
