package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"

	"amp/internal/core"
	"amp/internal/counting"
)

// TestCounterExact checks that concurrent increments are counted exactly,
// for both the single-cell baseline and the combining tree.
func TestCounterExact(t *testing.T) {
	const threads, perThread = 8, 2000
	backends := map[string]counting.Counter{
		"cas":       &counting.CASCounter{},
		"combining": counting.NewCombiningTree(threads),
	}
	for name, backend := range backends {
		t.Run(name, func(t *testing.T) {
			c := NewCounter(backend)
			var wg sync.WaitGroup
			for id := 0; id < threads; id++ {
				wg.Add(1)
				go func(me core.ThreadID) {
					defer wg.Done()
					for i := 0; i < perThread; i++ {
						c.Inc(me)
					}
				}(core.ThreadID(id))
			}
			wg.Wait()
			if got, want := c.Value(), int64(threads*perThread); got != want {
				t.Fatalf("Value() = %d, want %d", got, want)
			}
		})
	}
}

func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		us   int64
		want int
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {1023, 10}, {1024, 11},
		{1 << 40, histBuckets - 1},
	}
	for _, c := range cases {
		if got := logBucket(c.us, histBuckets); got != c.want {
			t.Errorf("logBucket(%d) = %d, want %d", c.us, got, c.want)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram(nil)
	// 99 fast samples and one slow one.
	for i := 0; i < 99; i++ {
		h.Observe(10*time.Microsecond, 0)
	}
	h.Observe(5*time.Millisecond, 0)

	if got := h.Count(); got != 100 {
		t.Fatalf("Count() = %d, want 100", got)
	}
	if p50 := h.Quantile(0.50); p50 > 16*time.Microsecond {
		t.Errorf("p50 = %v, want <= 16µs", p50)
	}
	if p99 := h.Quantile(0.99); p99 > 16*time.Microsecond {
		t.Errorf("p99 = %v, want <= 16µs (99 of 100 samples are 10µs)", p99)
	}
	if p100 := h.Quantile(1.0); p100 < 4*time.Millisecond {
		t.Errorf("p100 = %v, want >= 4ms", p100)
	}
	if mean := h.Mean(); mean < 10*time.Microsecond || mean > time.Millisecond {
		t.Errorf("Mean() = %v, want within (10µs, 1ms)", mean)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(nil)
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.99) != 0 {
		t.Errorf("empty histogram should report zeros, got count=%d mean=%v p99=%v",
			h.Count(), h.Mean(), h.Quantile(0.99))
	}
}

// TestSizeHistogramBuckets pins the log₂ bucket boundaries used for
// batch sizes: bucket i (i ≥ 1) holds [2^(i-1), 2^i), the last bucket
// absorbs everything larger.
func TestSizeHistogramBuckets(t *testing.T) {
	cases := []struct {
		n    int64
		want int
	}{
		{-5, 0}, {0, 0},
		{1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{127, 7}, {128, 8},
		{1 << 15, 16}, {1<<16 - 1, 16},
		{1 << 16, sizeBuckets - 1}, {1 << 40, sizeBuckets - 1},
	}
	for _, c := range cases {
		if got := logBucket(c.n, sizeBuckets); got != c.want {
			t.Errorf("logBucket(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestSizeHistogramStats(t *testing.T) {
	h := NewSizeHistogram(nil)
	// 90 singleton batches and 10 large combined ones.
	for i := 0; i < 90; i++ {
		h.Observe(1, 0)
	}
	for i := 0; i < 10; i++ {
		h.Observe(100, 0)
	}

	if got := h.Count(); got != 100 {
		t.Fatalf("Count() = %d, want 100", got)
	}
	if got := h.Sum(); got != 90+10*100 {
		t.Fatalf("Sum() = %d, want %d", got, 90+10*100)
	}
	if mean := h.Mean(); mean != 10.9 {
		t.Errorf("Mean() = %v, want 10.9", mean)
	}
	// p50 lands in the size-1 bucket (upper bound 2^1−1 = 1); p99 in the
	// bucket of 100, [64, 128), upper bound 127.
	if p50 := h.Quantile(0.50); p50 != 1 {
		t.Errorf("p50 = %d, want 1", p50)
	}
	if p99 := h.Quantile(0.99); p99 != 127 {
		t.Errorf("p99 = %d, want 127", p99)
	}
}

func TestSizeHistogramEmpty(t *testing.T) {
	h := NewSizeHistogram(nil)
	if h.Count() != 0 || h.Sum() != 0 || h.Mean() != 0 || h.Quantile(0.99) != 0 {
		t.Errorf("empty size histogram should report zeros, got count=%d sum=%d mean=%v p99=%d",
			h.Count(), h.Sum(), h.Mean(), h.Quantile(0.99))
	}
}

// TestSizeHistogramConcurrent observes sizes from many threads over a
// combining-tree backend, as the server's shards do; counts and sum must
// come out exact after quiescence.
func TestSizeHistogramConcurrent(t *testing.T) {
	const threads, perThread = 8, 1000
	h := NewSizeHistogram(func() counting.Counter { return counting.NewCombiningTree(threads) })
	var wg sync.WaitGroup
	for id := 0; id < threads; id++ {
		wg.Add(1)
		go func(me core.ThreadID) {
			defer wg.Done()
			for i := 0; i < perThread; i++ {
				h.Observe(int64(i%8+1), me)
			}
		}(core.ThreadID(id))
	}
	wg.Wait()

	if got, want := h.Count(), int64(threads*perThread); got != want {
		t.Fatalf("Count() = %d, want %d", got, want)
	}
	// Each thread observes 1..8 cyclically: 125 full cycles of sum 36.
	if got, want := h.Sum(), int64(threads*(perThread/8)*36); got != want {
		t.Fatalf("Sum() = %d, want %d", got, want)
	}
}

// TestSizeHistogramFormat pins the STATS rendering of the batch-size
// line.
func TestSizeHistogramFormat(t *testing.T) {
	h := NewSizeHistogram(nil)
	for i := 0; i < 4; i++ {
		h.Observe(8, 0)
	}
	got := h.Format("shard.batch")
	want := "hist shard.batch count=4 sum=32 mean=8.0 p50=15 p99=15\n"
	if got != want {
		t.Errorf("Format() = %q, want %q", got, want)
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry(nil, "set.add", "set.contains")
	r.Op("set.add").Observe(time.Millisecond, 0)
	r.Op("set.add").Observe(time.Millisecond, 0)
	r.Op("set.contains").Observe(time.Microsecond, 0)

	snap := r.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("Snapshot() has %d rows, want 2", len(snap))
	}
	if snap[0].Name != "set.add" || snap[0].Count != 2 {
		t.Errorf("row 0 = %+v, want set.add count 2", snap[0])
	}
	if snap[1].Name != "set.contains" || snap[1].Count != 1 {
		t.Errorf("row 1 = %+v, want set.contains count 1", snap[1])
	}

	out := r.Format()
	if !strings.Contains(out, "op set.add count=2") {
		t.Errorf("Format() missing set.add line:\n%s", out)
	}

	defer func() {
		if recover() == nil {
			t.Error("Op on unregistered name should panic")
		}
	}()
	r.Op("nope")
}

// TestRegistryCombiningBackend exercises a registry whose every counter is
// a combining tree, concurrently, as the server uses it.
func TestRegistryCombiningBackend(t *testing.T) {
	const threads = 4
	r := NewRegistry(func() counting.Counter { return counting.NewCombiningTree(threads) }, "q.enq")
	var wg sync.WaitGroup
	for id := 0; id < threads; id++ {
		wg.Add(1)
		go func(me core.ThreadID) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Op("q.enq").Observe(time.Microsecond, me)
			}
		}(core.ThreadID(id))
	}
	wg.Wait()
	if got := r.Op("q.enq").Count(); got != 2000 {
		t.Fatalf("Count() = %d, want 2000", got)
	}
}

// TestExternals checks the closure-backed counters format and snapshot
// like registry ops.
func TestExternals(t *testing.T) {
	var commits, aborts int64 = 7, 2
	e := Externals{
		{Name: "txn.commit", Read: func() int64 { return commits }},
		{Name: "txn.abort", Read: func() int64 { return aborts }},
	}
	snap := e.Snapshot()
	if len(snap) != 2 || snap[0].Name != "txn.commit" || snap[0].Count != 7 ||
		snap[1].Name != "txn.abort" || snap[1].Count != 2 {
		t.Fatalf("Snapshot() = %+v", snap)
	}
	out := e.Format()
	if !strings.Contains(out, "op txn.commit count=7\n") ||
		!strings.Contains(out, "op txn.abort count=2\n") {
		t.Fatalf("Format():\n%s", out)
	}
	commits = 8
	if e.Snapshot()[0].Count != 8 {
		t.Fatal("Snapshot not reading through the closure")
	}
}
