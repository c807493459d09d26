// Command ampserved serves the book's concurrent objects over TCP: a
// sharded in-memory data-structure server whose backends — hash set,
// queue, stack, counter, priority queue — are selected per family at
// startup from the implementations in internal/ (see internal/server for
// the protocol).
//
// Usage:
//
//	ampserved                              # defaults on 127.0.0.1:7171
//	ampserved -addr :7171 -shards 8
//	ampserved -set lockfree -map refinable -queue recycling -counter network
//	ampserved -txn dstm -cm backoff        # MULTI/EXEC over the DSTM engine
//	ampserved -set skip-epoch -map epoch -txn off   # every read on the wait-free bypass
//	ampserved -read-bypass off             # force all reads through the shard mailboxes
//	ampserved -spin 256                    # longer mailbox spin before shard goroutines park
//	ampserved -http 127.0.0.1:7172         # expvar stats endpoint
//	ampserved -snapshot-dir /var/lib/amp   # where SAVE/BGSAVE write the snapshot
//	ampserved -restore /var/lib/amp/ampserved.snap  # boot from the last snapshot
//	ampserved -shards 4 -max-shards 16     # allow RESHARD up to 16 shards
//
// The server shuts down gracefully on SIGINT/SIGTERM: it stops accepting,
// finishes in-flight commands, and drains connections for -drain before
// forcing them closed.
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"amp/internal/server"
)

// statsSrv is read by the expvar callback; an atomic pointer because test
// runs construct several servers in one process.
var statsSrv atomic.Pointer[server.Server]

func main() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	if err := run(os.Args[1:], os.Stdout, sig); err != nil {
		fmt.Fprintln(os.Stderr, "ampserved:", err)
		os.Exit(1)
	}
}

// run builds and serves until an error or a signal; factored out so tests
// can drive it with a synthetic signal channel.
func run(args []string, out io.Writer, sig <-chan os.Signal) error {
	fs := flag.NewFlagSet("ampserved", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		addr      = fs.String("addr", "127.0.0.1:7171", "TCP listen address")
		httpAddr  = fs.String("http", "", "optional expvar HTTP address (empty = off)")
		shards    = fs.Int("shards", 0, "data-plane shards (0 = GOMAXPROCS)")
		maxShards = fs.Int("max-shards", 0, "RESHARD ceiling (0 = 2x shards)")
		drain     = fs.Duration("drain", 5*time.Second, "connection drain budget on shutdown")
		idle      = fs.Duration("idle-timeout", 2*time.Minute, "drop connections idle this long")
		snapDir   = fs.String("snapshot-dir", "", "directory for SAVE/BGSAVE snapshot files (default .)")
		restore   = fs.String("restore", "", "load this snapshot file before serving (empty = fresh state)")

		set            = fs.String("set", "", "set backend: "+strings.Join(server.SetBackends(), "|"))
		mapb           = fs.String("map", "", "string-map backend: "+strings.Join(server.MapBackends(), "|"))
		queue          = fs.String("queue", "", "queue backend: "+strings.Join(server.QueueBackends(), "|"))
		stack          = fs.String("stack", "", "stack backend: "+strings.Join(server.StackBackends(), "|"))
		pqueue         = fs.String("pqueue", "", "priority-queue backend: "+strings.Join(server.PQueueBackends(), "|"))
		counter        = fs.String("counter", "", "counter backend: "+strings.Join(server.CounterBackends(), "|"))
		metricsCounter = fs.String("metrics-counter", "",
			"counting backend for the metrics layer: "+strings.Join(server.CounterBackends(), "|"))
		txn = fs.String("txn", "", "transactional keyspace engine for MULTI/EXEC: "+strings.Join(server.TxnBackends(), "|"))
		cm  = fs.String("cm", "", "DSTM contention manager: "+strings.Join(server.CMBackends(), "|"))

		readBypass = fs.String("read-bypass", "",
			"mailbox-free read fast path on capable backends: on|off (default on)")
		spin = fs.Int("spin", 0,
			"shard mailbox spin budget: empty polls before a shard goroutine parks (0 = default, negative = park immediately)")

		setCap   = fs.Int("set-cap", 0, "per-shard hash table size (power of two)")
		queueCap = fs.Int("queue-cap", 0, "bounded/recycling queue capacity")
		pqCap    = fs.Int("pq-cap", 0, "heap capacity / linear/tree priority range")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	srv, err := server.New(server.Options{
		Shards:         *shards,
		MaxShards:      *maxShards,
		SnapshotDir:    *snapDir,
		Set:            *set,
		Map:            *mapb,
		Queue:          *queue,
		Stack:          *stack,
		PQueue:         *pqueue,
		Counter:        *counter,
		MetricsCounter: *metricsCounter,
		Txn:            *txn,
		CM:             *cm,
		ReadBypass:     *readBypass,
		SpinBudget:     *spin,
		SetCapacity:    *setCap,
		QueueCapacity:  *queueCap,
		PQCapacity:     *pqCap,
		IdleTimeout:    *idle,
	})
	if err != nil {
		return err
	}
	if *restore != "" {
		if err := srv.Restore(*restore); err != nil {
			srv.Shutdown(context.Background())
			return fmt.Errorf("restore %s: %w", *restore, err)
		}
		fmt.Fprintf(out, "ampserved: restored state from %s\n", *restore)
	}
	if err := srv.Listen(*addr); err != nil {
		srv.Shutdown(context.Background())
		return err
	}
	opts := srv.Options()
	fmt.Fprintf(out, "ampserved: listening on %s (shards=%d set=%s map=%s queue=%s stack=%s pqueue=%s counter=%s txn=%s cm=%s read-bypass=%s spin=%d)\n",
		srv.Addr(), opts.Shards, opts.Set, opts.Map, opts.Queue, opts.Stack, opts.PQueue, opts.Counter, opts.Txn, opts.CM, opts.ReadBypass, opts.SpinBudget)

	var httpSrv *http.Server
	if *httpAddr != "" {
		statsSrv.Store(srv)
		if expvar.Get("ampserved") == nil {
			expvar.Publish("ampserved", expvar.Func(func() any {
				if s := statsSrv.Load(); s != nil {
					return s.Stats()
				}
				return nil
			}))
		}
		httpSrv = &http.Server{Addr: *httpAddr, Handler: http.DefaultServeMux}
		go httpSrv.ListenAndServe()
		fmt.Fprintf(out, "ampserved: expvar stats on http://%s/debug/vars\n", *httpAddr)
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve() }()

	select {
	case err := <-serveErr:
		srv.Shutdown(context.Background())
		return err
	case s := <-sig:
		fmt.Fprintf(out, "ampserved: %v, shutting down\n", s)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if httpSrv != nil {
		httpSrv.Shutdown(ctx)
	}
	if err := srv.Shutdown(ctx); err != nil {
		return err
	}
	if err := <-serveErr; err != nil {
		return err
	}
	fmt.Fprintln(out, "ampserved: bye")
	return nil
}
