// Command ampbench regenerates the evaluation tables of DESIGN.md: one
// throughput table per reproduced figure (E1–E14), printed in the shape of
// the book's plots.
//
// Usage:
//
//	ampbench                 # quick sweep of every experiment
//	ampbench -full           # the full thread sweep (slow)
//	ampbench -run E1,E5      # selected experiments only
//	ampbench -list           # list experiments
//	ampbench -threads 1,2,4  # custom thread axis
//	ampbench -ops 5000       # per-thread operations per cell
//
// With -serve-addr, ampbench turns into a load generator for a running
// ampserved instance instead:
//
//	ampbench -serve-addr 127.0.0.1:7171 -clients 16 -ops 5000
//	ampbench -serve-addr 127.0.0.1:7171 -clients 16 -ops 5000 -depth 8
//	ampbench -serve-addr 127.0.0.1:7171 -mode map -keys 4096
//	ampbench -serve-addr 127.0.0.1:7171 -mode txn -clients 64 -txn-size 2
//	ampbench -serve-addr 127.0.0.1:7171 -mix 90:10 -keys 1024
//	ampbench -serve-addr 127.0.0.1:7171 -mode snapshot -clients 8 -depth 8
//
// Each client opens one TCP connection and replays a mix covering all six
// command families; the run reports ops/sec and p50/p99 latency. -depth
// sets the pipeline depth: commands kept in flight per connection (1 =
// wait for every reply, the pre-pipelining behavior). Latency is the
// round-trip of a command's window, so at depth > 1 it measures batch
// turnaround, not per-command service time. -mode map switches the
// workload to string-keyed HSET/HGET/HDEL with Zipf-popular keys drawn
// from a -keys-sized space. -mode txn replays MULTI/EXEC transfer
// transactions of -txn-size staged commands over -keys accounts; after
// the load quiesces it reads every account and fails unless the balance
// sum is exactly zero — the atomicity invariant — then prints the
// server's TXSTATS commit/abort line. -mix R:W replays a ratio-controlled
// read/write mix (GET/SET/DEL, or HGET/HSET/HDEL in -mode map) and
// reports p50/p99/p99.9 — the knob EXPERIMENTS.md E18 uses to measure
// the read bypass's tail latency. -mode snapshot replays a steady
// GET/SET/DEL load through five segments — quiet, SAVE landing
// mid-segment, quiet, RESHARD doubling mid-segment, quiet — and reports
// each segment's ops/sec and p50/p99 plus the control verb's own
// round-trip: the durability and elasticity stall probe EXPERIMENTS.md
// E21 uses (the server needs a writable -snapshot-dir and headroom
// under -max-shards).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"

	"amp/internal/bench"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ampbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ampbench", flag.ContinueOnError)
	var (
		full      = fs.Bool("full", false, "run the full thread sweep (1..32)")
		list      = fs.Bool("list", false, "list experiments and exit")
		runIDs    = fs.String("run", "", "comma-separated experiment IDs (default: all)")
		threads   = fs.String("threads", "", "comma-separated thread counts overriding the preset")
		ops       = fs.Int("ops", 0, "per-thread operations per cell overriding the preset")
		ablations = fs.Bool("ablations", false, "also run the design-choice ablations (A1..)")
		procs     = fs.Int("procs", 0, "GOMAXPROCS override (0 = leave as is)")
		serveAddr = fs.String("serve-addr", "", "drive a running ampserved at this address instead of the in-process experiments")
		clients   = fs.Int("clients", 8, "load mode: concurrent client connections")
		depth     = fs.Int("depth", 1, "load mode: pipeline depth (commands in flight per connection)")
		mode      = fs.String("mode", "mix", "load mode workload: mix (all families), map (Zipf string keys), txn (MULTI/EXEC transfers), or snapshot (p99 before/during/after SAVE and RESHARD)")
		keys      = fs.Int("keys", 1024, "load mode: key-space (account) size for -mode map/txn/snapshot")
		txnSize   = fs.Int("txn-size", 2, "load mode: staged commands per transaction for -mode txn")
		mix       = fs.String("mix", "", "load mode: read:write ratio like 90:10 (GET/SET/DEL in -mode mix, HGET/HSET/HDEL in -mode map)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *serveAddr != "" {
		opsPerClient := *ops
		if opsPerClient <= 0 {
			opsPerClient = 2000
		}
		return runLoad(loadConfig{addr: *serveAddr, clients: *clients, ops: opsPerClient,
			depth: *depth, mode: *mode, keys: *keys, txnSize: *txnSize, mix: *mix}, out)
	}

	if *list {
		for _, e := range bench.AllAndAblations() {
			fmt.Fprintf(out, "%-5s %-36s %s\n", e.ID, e.Title, e.Description)
		}
		return nil
	}

	if *procs > 0 {
		runtime.GOMAXPROCS(*procs)
	}

	cfg := bench.Quick
	if *full {
		cfg = bench.Full
	}
	if *threads != "" {
		axis, err := parseInts(*threads)
		if err != nil {
			return fmt.Errorf("parse -threads: %w", err)
		}
		cfg.Threads = axis
	}
	if *ops > 0 {
		cfg.Ops = *ops
	}

	selected := bench.All
	if *ablations {
		selected = bench.AllAndAblations()
	}
	if *runIDs != "" {
		selected = nil
		for _, id := range strings.Split(*runIDs, ",") {
			e, ok := bench.ByID(strings.TrimSpace(id))
			if !ok {
				return fmt.Errorf("unknown experiment %q (try -list)", id)
			}
			selected = append(selected, e)
		}
	}

	fmt.Fprintf(out, "ampbench: GOMAXPROCS=%d threads=%v ops/cell=%d\n\n",
		runtime.GOMAXPROCS(0), cfg.Threads, cfg.Ops)
	for _, e := range selected {
		table := e.Run(cfg)
		fmt.Fprintln(out, table.Format())
		fmt.Fprintf(out, "  best at %d threads: %s\n\n",
			cfg.Threads[len(cfg.Threads)-1], table.Winner())
	}
	return nil
}

func parseInts(csv string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(csv, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		if v <= 0 {
			return nil, fmt.Errorf("thread count must be positive, got %d", v)
		}
		out = append(out, v)
	}
	return out, nil
}
