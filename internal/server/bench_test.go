package server

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"testing"
	"time"
)

// BenchmarkEngineSet measures the data plane alone (shard hop included,
// no network): mixed SET/GET/DEL on the default striped backend.
func BenchmarkEngineSet(b *testing.B) {
	srv, err := New(Options{Shards: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	e := srv.eng

	b.RunParallel(func(pb *testing.PB) {
		i := int64(0)
		for pb.Next() {
			i++
			switch i % 3 {
			case 0:
				e.do(Command{Op: OpSet, Arg: i})
			case 1:
				e.do(Command{Op: OpGet, Arg: i})
			default:
				e.do(Command{Op: OpDel, Arg: i})
			}
		}
	})
}

// BenchmarkServerTCPPipelined measures loopback TCP throughput with each
// client keeping a window of commands in flight, exercising the
// parse-ahead batching and flat-combining path end to end. Compare with
// BenchmarkServerTCP for the pipelining speedup.
func BenchmarkServerTCPPipelined(b *testing.B) {
	const depth = 16
	srv, err := New(Options{Shards: 4})
	if err != nil {
		b.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	go srv.Serve()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	addr := srv.Addr().String()

	b.RunParallel(func(pb *testing.PB) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			b.Error(err)
			return
		}
		defer conn.Close()
		r := bufio.NewReader(conn)
		w := bufio.NewWriter(conn)
		i := int64(0)
		window := 0
		for pb.Next() {
			i++
			fmt.Fprintf(w, "SET %d\n", i)
			if window++; window < depth {
				continue
			}
			if err := w.Flush(); err != nil {
				b.Error(err)
				return
			}
			for ; window > 0; window-- {
				if _, err := r.ReadString('\n'); err != nil {
					b.Error(err)
					return
				}
			}
		}
		if window > 0 {
			if err := w.Flush(); err != nil {
				b.Error(err)
				return
			}
			for ; window > 0; window-- {
				if _, err := r.ReadString('\n'); err != nil {
					b.Error(err)
					return
				}
			}
		}
	})
}

// BenchmarkServerTCPStringMap measures the string-keyed map family over
// loopback TCP with pipelining: alternating HSET/HGET over a 1024-key
// working set, exercising string-token parsing, hash routing, and the
// per-shard dictionaries end to end.
func BenchmarkServerTCPStringMap(b *testing.B) {
	const depth = 16
	srv, err := New(Options{Shards: 4})
	if err != nil {
		b.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	go srv.Serve()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	addr := srv.Addr().String()

	b.RunParallel(func(pb *testing.PB) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			b.Error(err)
			return
		}
		defer conn.Close()
		r := bufio.NewReader(conn)
		w := bufio.NewWriter(conn)
		i := int64(0)
		window := 0
		for pb.Next() {
			i++
			if i%2 == 0 {
				fmt.Fprintf(w, "HSET user:%d %d\n", i%1024, i)
			} else {
				fmt.Fprintf(w, "HGET user:%d\n", i%1024)
			}
			if window++; window < depth {
				continue
			}
			if err := w.Flush(); err != nil {
				b.Error(err)
				return
			}
			for ; window > 0; window-- {
				if _, err := r.ReadString('\n'); err != nil {
					b.Error(err)
					return
				}
			}
		}
		if window > 0 {
			if err := w.Flush(); err != nil {
				b.Error(err)
				return
			}
			for ; window > 0; window-- {
				if _, err := r.ReadString('\n'); err != nil {
					b.Error(err)
					return
				}
			}
		}
	})
}

// BenchmarkServerTCPTxn measures MULTI/EXEC transactions over loopback
// TCP with pipelining: each benchmark op is one whole two-key transfer
// (MULTI, HINCR +1, HINCR -1, EXEC — six reply lines) over a 64-account
// working set on the default TL2 keyspace, so the measured path includes
// staging, cross-shard commit, and array framing. Reports STM commits
// per transaction; benchgate requires that metric to be live and nonzero.
func BenchmarkServerTCPTxn(b *testing.B) {
	const depth = 4 // transactions in flight per client
	srv, err := New(Options{Shards: 4})
	if err != nil {
		b.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	go srv.Serve()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	addr := srv.Addr().String()

	b.RunParallel(func(pb *testing.PB) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			b.Error(err)
			return
		}
		defer conn.Close()
		r := bufio.NewReader(conn)
		w := bufio.NewWriter(conn)
		readTxn := func() bool {
			for j := 0; j < 6; j++ { // OK, +QUEUED, +QUEUED, *2, two values
				if _, err := r.ReadString('\n'); err != nil {
					b.Error(err)
					return false
				}
			}
			return true
		}
		i := 0
		window := 0
		for pb.Next() {
			i++
			src, dst := i%64, (i*31+7)%64
			fmt.Fprintf(w, "MULTI\nHINCR acct:%d 1\nHINCR acct:%d -1\nEXEC\n", src, dst)
			if window++; window < depth {
				continue
			}
			if err := w.Flush(); err != nil {
				b.Error(err)
				return
			}
			for ; window > 0; window-- {
				if !readTxn() {
					return
				}
			}
		}
		if window > 0 {
			if err := w.Flush(); err != nil {
				b.Error(err)
				return
			}
			for ; window > 0; window-- {
				if !readTxn() {
					return
				}
			}
		}
	})
	b.StopTimer()
	commits := srv.eng.ks.Commits()
	if commits == 0 {
		b.Fatal("transactional bench recorded zero commits")
	}
	b.ReportMetric(float64(commits)/float64(b.N), "commits/op")
}

// BenchmarkServerTCPReadMostly measures the read-mostly regime the wait
// -free bypass targets: pipelined GET-heavy traffic (90% and 99% reads)
// over a 1024-key space on the epoch-safe skiplist backend, with the
// bypass on and off. Compare the pairs for the tail-latency and
// throughput effect of serving reads on the connection goroutine
// instead of the shard mailbox.
func BenchmarkServerTCPReadMostly(b *testing.B) {
	for _, pct := range []int{90, 99} {
		for _, bypass := range []string{"on", "off"} {
			b.Run(fmt.Sprintf("mix%d-bypass-%s", pct, bypass), func(b *testing.B) {
				benchReadMostly(b, pct, bypass)
			})
		}
	}
}

func benchReadMostly(b *testing.B, readPct int, bypass string) {
	const depth = 16
	srv, err := New(Options{Shards: 4, Set: "skip-epoch", Map: "epoch", Txn: "off", ReadBypass: bypass})
	if err != nil {
		b.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	go srv.Serve()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	addr := srv.Addr().String()

	b.RunParallel(func(pb *testing.PB) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			b.Error(err)
			return
		}
		defer conn.Close()
		r := bufio.NewReader(conn)
		w := bufio.NewWriter(conn)
		i := int64(0)
		window := 0
		flush := func() bool {
			if err := w.Flush(); err != nil {
				b.Error(err)
				return false
			}
			for ; window > 0; window-- {
				if _, err := r.ReadString('\n'); err != nil {
					b.Error(err)
					return false
				}
			}
			return true
		}
		for pb.Next() {
			i++
			// i*37 disperses the writes through each 100-op stretch
			// instead of clustering them, so runs and bypass reads
			// interleave the way a real mixed stream would.
			switch k := i % 1024; {
			case (i*37)%100 < int64(readPct):
				fmt.Fprintf(w, "GET %d\n", k)
			case i%3 == 0:
				fmt.Fprintf(w, "DEL %d\n", k)
			default:
				fmt.Fprintf(w, "SET %d\n", k)
			}
			if window++; window >= depth && !flush() {
				return
			}
		}
		if window > 0 {
			flush()
		}
	})
}

// BenchmarkReadBypassSteady isolates the wait-free read path itself —
// engine.do on bypass-eligible GET/HGET against warmed epoch-safe
// structures, no network — and is the allocation gate for the bypass:
// benchgate fails CI if a read ever allocates, because pin, table load,
// chain walk, and reply construction are all designed to be free of
// them (that is what makes the path safe to run on every connection
// goroutine at once).
func BenchmarkReadBypassSteady(b *testing.B) {
	srv, err := New(Options{Shards: 4, Set: "skip-epoch", Map: "epoch", Txn: "off"})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	e := srv.eng
	if e.bypass != [2]bool{true, true} {
		b.Fatalf("bypass not enabled: set=%v map=%v", e.bypass[famSet], e.bypass[famMap])
	}

	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("user:%d", i)
		e.do(Command{Op: OpHSet, Key: keys[i], Arg: int64(i)})
		e.do(Command{Op: OpSet, Arg: int64(i)})
	}

	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			i++
			if i%2 == 0 {
				e.do(Command{Op: OpGet, Arg: int64(i % 1024)})
			} else {
				e.do(Command{Op: OpHGet, Key: keys[i%1024]})
			}
		}
	})
}

// BenchmarkServerTCP measures full round-trips over loopback TCP, one
// pipelining-free client per benchmark goroutine.
func BenchmarkServerTCP(b *testing.B) {
	srv, err := New(Options{Shards: 4})
	if err != nil {
		b.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	go srv.Serve()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	addr := srv.Addr().String()

	b.RunParallel(func(pb *testing.PB) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			b.Error(err)
			return
		}
		defer conn.Close()
		r := bufio.NewReader(conn)
		i := int64(0)
		for pb.Next() {
			i++
			if _, err := fmt.Fprintf(conn, "SET %d\n", i); err != nil {
				b.Error(err)
				return
			}
			if _, err := r.ReadString('\n'); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkServerTCPSnapshot measures pipelined set-family throughput
// while a background client cuts a SAVE every few milliseconds: the
// steady-state cost of riding the quiesce cut and snapshot encode on a
// live data plane. The key space is bounded so the snapshot — and with
// it the per-save encode cost — stays a fixed size. Compare with
// BenchmarkServerTCPPipelined for the no-snapshot ceiling.
func BenchmarkServerTCPSnapshot(b *testing.B) {
	const depth = 16
	srv, err := New(Options{Shards: 4, SnapshotDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	go srv.Serve()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	addr := srv.Addr().String()

	stop := make(chan struct{})
	saverDone := make(chan struct{})
	go func() {
		defer close(saverDone)
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			b.Error(err)
			return
		}
		defer conn.Close()
		r := bufio.NewReader(conn)
		for {
			select {
			case <-stop:
				return
			case <-time.After(5 * time.Millisecond):
			}
			if _, err := fmt.Fprintf(conn, "SAVE\n"); err != nil {
				b.Error(err)
				return
			}
			conn.SetReadDeadline(time.Now().Add(10 * time.Second))
			if line, err := r.ReadString('\n'); err != nil || line != "OK\n" {
				b.Errorf("SAVE → %q, %v", line, err)
				return
			}
		}
	}()

	b.RunParallel(func(pb *testing.PB) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			b.Error(err)
			return
		}
		defer conn.Close()
		r := bufio.NewReader(conn)
		w := bufio.NewWriter(conn)
		i := int64(0)
		window := 0
		for pb.Next() {
			i++
			fmt.Fprintf(w, "SET %d\n", i%8192)
			if window++; window < depth {
				continue
			}
			if err := w.Flush(); err != nil {
				b.Error(err)
				return
			}
			for ; window > 0; window-- {
				if _, err := r.ReadString('\n'); err != nil {
					b.Error(err)
					return
				}
			}
		}
		if window > 0 {
			if err := w.Flush(); err != nil {
				b.Error(err)
				return
			}
			for ; window > 0; window-- {
				if _, err := r.ReadString('\n'); err != nil {
					b.Error(err)
					return
				}
			}
		}
	})
	close(stop)
	<-saverDone
}
