package main

import (
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: amp/internal/queue
cpu: Test CPU
BenchmarkEpochQueueSteadyEnqDeq-8      	15206725	       147.6 ns/op	       0 B/op	       0 allocs/op
BenchmarkEpochQueueSteadyEnqDeq-8      	15100000	       149.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkLockFreeQueueEnqDeq-8         	38889381	        68.00 ns/op	      16 B/op	       1 allocs/op
BenchmarkServerTCPPipelined/depth=8-8  	  120000	      9500 ns/op
PASS
ok  	amp/internal/queue	12.3s
`

func TestParseAggregates(t *testing.T) {
	rep, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Samples != 4 {
		t.Fatalf("Samples = %d, want 4", rep.Samples)
	}
	if len(rep.Benchmarks) != 3 {
		t.Fatalf("Benchmarks = %d, want 3", len(rep.Benchmarks))
	}
	var epoch *Benchmark
	for _, b := range rep.Benchmarks {
		if b.Name == "BenchmarkEpochQueueSteadyEnqDeq-8" {
			epoch = b
		}
	}
	if epoch == nil {
		t.Fatal("epoch benchmark not found")
	}
	if epoch.Runs != 2 {
		t.Fatalf("Runs = %d, want 2", epoch.Runs)
	}
	if epoch.AllocsPerOp != 0 {
		t.Fatalf("AllocsPerOp = %f, want 0", epoch.AllocsPerOp)
	}
	if epoch.NsPerOp < 147 || epoch.NsPerOp > 150 {
		t.Fatalf("NsPerOp = %f, want mean of 147.6 and 149.0", epoch.NsPerOp)
	}
}

func TestGatePassesOnZeroAllocs(t *testing.T) {
	rep, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	bad, err := rep.Gate(`Epoch.*Steady`)
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 0 {
		t.Fatalf("gate flagged %d benchmarks, want 0", len(bad))
	}
}

func TestGateFlagsAllocatingBench(t *testing.T) {
	rep, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	bad, err := rep.Gate(`LockFreeQueue`)
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 1 || bad[0].Name != "BenchmarkLockFreeQueueEnqDeq-8" {
		t.Fatalf("gate = %+v, want the allocating lockfree bench", bad)
	}
}

func TestGateKeepsWorstSample(t *testing.T) {
	// A single allocating run out of five must still fail the gate.
	flaky := `BenchmarkEpochListSteadyAddRemove-8  1000  200 ns/op  0 B/op  0 allocs/op
BenchmarkEpochListSteadyAddRemove-8  1000  200 ns/op  16 B/op  1 allocs/op
`
	rep, err := Parse(strings.NewReader(flaky))
	if err != nil {
		t.Fatal(err)
	}
	bad, err := rep.Gate(`Epoch.*Steady`)
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 1 {
		t.Fatalf("gate flagged %d, want 1 (worst sample allocated)", len(bad))
	}
}

const txnSample = `BenchmarkServerTCPTxn-8  50000  21000 ns/op  1.000 commits/op  900 B/op  14 allocs/op
BenchmarkServerTCPTxn-8  52000  20500 ns/op  1.002 commits/op  890 B/op  14 allocs/op
BenchmarkServerTCPPipelined-8  900000  1200 ns/op  64 B/op  2 allocs/op
`

func TestParseExtraMetrics(t *testing.T) {
	rep, err := Parse(strings.NewReader(txnSample))
	if err != nil {
		t.Fatal(err)
	}
	var txn *Benchmark
	for _, b := range rep.Benchmarks {
		if b.Name == "BenchmarkServerTCPTxn-8" {
			txn = b
		}
	}
	if txn == nil {
		t.Fatal("txn benchmark not found")
	}
	if got := txn.Extra["commits/op"]; got != 1.000 {
		t.Fatalf("Extra[commits/op] = %v, want the minimum sample 1.000", got)
	}
	// The -benchmem columns after a custom metric must still parse.
	if txn.AllocsPerOp != 14 {
		t.Fatalf("AllocsPerOp = %v, want 14", txn.AllocsPerOp)
	}
	if txn.BytesPerOp != 900 {
		t.Fatalf("BytesPerOp = %v, want worst sample 900", txn.BytesPerOp)
	}
}

func TestRequirePassesOnLiveMetric(t *testing.T) {
	rep, err := Parse(strings.NewReader(txnSample))
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Require(`ServerTCPTxn`, "commits/op"); err != nil {
		t.Fatalf("Require = %v, want nil", err)
	}
}

func TestRequireFailsOnMissingMetric(t *testing.T) {
	rep, err := Parse(strings.NewReader(txnSample))
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Require(`ServerTCPPipelined`, "commits/op"); err == nil {
		t.Fatal("Require on a bench without the metric should fail")
	}
	if err := rep.Require(`NoSuchBench`, "commits/op"); err == nil {
		t.Fatal("Require with no matches should fail, not silently pass")
	}
}

func TestRequireFailsOnZeroMetric(t *testing.T) {
	dead := `BenchmarkServerTCPTxn-8  50000  21000 ns/op  0 commits/op  900 B/op  14 allocs/op
`
	rep, err := Parse(strings.NewReader(dead))
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Require(`ServerTCPTxn`, "commits/op"); err == nil {
		t.Fatal("Require on a zero metric should fail")
	}
}

func TestGateRejectsEmptyMatch(t *testing.T) {
	rep, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rep.Gate(`NoSuchBench`); err == nil {
		t.Fatal("gate with no matches should error, not silently pass")
	}
}

func TestNormalizeName(t *testing.T) {
	for in, want := range map[string]string{
		"BenchmarkServerTCPPipelined-8":         "BenchmarkServerTCPPipelined",
		"BenchmarkServerTCPPipelined":           "BenchmarkServerTCPPipelined",
		"BenchmarkMailboxVsChan/mailbox-16":     "BenchmarkMailboxVsChan/mailbox",
		"BenchmarkServerTCPPipelined/depth=8-2": "BenchmarkServerTCPPipelined/depth=8",
	} {
		if got := normalizeName(in); got != want {
			t.Errorf("normalizeName(%q) = %q, want %q", in, got, want)
		}
	}
}

func ratioReports(t *testing.T, curNs, baseNs string) (*Report, *Report) {
	t.Helper()
	cur, err := Parse(strings.NewReader(curNs))
	if err != nil {
		t.Fatal(err)
	}
	base, err := Parse(strings.NewReader(baseNs))
	if err != nil {
		t.Fatal(err)
	}
	return cur, base
}

func TestRatioPassesWithinBudget(t *testing.T) {
	// 10% slower than baseline stays under a 15% ceiling; the baseline's
	// differing -N procs suffix must not break the match.
	cur, base := ratioReports(t,
		"BenchmarkServerTCPPipelined-8  900000  1100 ns/op\n",
		"BenchmarkServerTCPPipelined-2  900000  1000 ns/op\n")
	bad, err := cur.Ratio(base, `ServerTCPPipelined`, 1.15)
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 0 {
		t.Fatalf("ratio flagged %+v, want none", bad)
	}
}

func TestRatioFlagsRegression(t *testing.T) {
	cur, base := ratioReports(t,
		"BenchmarkServerTCPPipelined-8  900000  1300 ns/op\n",
		"BenchmarkServerTCPPipelined-8  900000  1000 ns/op\n")
	bad, err := cur.Ratio(base, `ServerTCPPipelined`, 1.15)
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 1 {
		t.Fatalf("ratio flagged %d, want 1", len(bad))
	}
	if v := bad[0]; v.Ratio < 1.29 || v.Ratio > 1.31 {
		t.Fatalf("violation ratio = %v, want ~1.30", v.Ratio)
	}
}

func TestRatioAveragesRepeatedRuns(t *testing.T) {
	// One noisy sample out of three must not fail the gate: the ratio
	// compares mean ns/op, not the worst run.
	cur, base := ratioReports(t,
		"BenchmarkServerTCPPipelined-8  900000  1000 ns/op\n"+
			"BenchmarkServerTCPPipelined-8  900000  1300 ns/op\n"+
			"BenchmarkServerTCPPipelined-8  900000  1000 ns/op\n",
		"BenchmarkServerTCPPipelined-8  900000  1000 ns/op\n")
	bad, err := cur.Ratio(base, `ServerTCPPipelined`, 1.15)
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 0 {
		t.Fatalf("ratio flagged %+v, want none (mean 1100 = 1.10x)", bad)
	}
}

func TestRatioErrorsOnMissingBaseline(t *testing.T) {
	cur, base := ratioReports(t,
		"BenchmarkServerTCPPipelined-8  900000  1000 ns/op\n",
		"BenchmarkSomethingElse-8  900000  1000 ns/op\n")
	if _, err := cur.Ratio(base, `ServerTCPPipelined`, 1.15); err == nil {
		t.Fatal("Ratio = nil error, want missing-baseline error")
	}
}

func TestRatioErrorsOnNoMatch(t *testing.T) {
	cur, base := ratioReports(t,
		"BenchmarkServerTCPPipelined-8  900000  1000 ns/op\n",
		"BenchmarkServerTCPPipelined-8  900000  1000 ns/op\n")
	if _, err := cur.Ratio(base, `Renamed`, 1.15); err == nil {
		t.Fatal("Ratio = nil error, want no-match error")
	}
}
