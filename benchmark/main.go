// Command benchmark is the repo benchmark: it builds cmd/ampserved, starts
// one fresh child process per workload, drives it over loopback TCP from
// this single generator process, checks every reply, and prints the
// end-to-end metrics (untraced run) or the per-layer metrics (traced run)
// by name. BENCHMARK.json at the repo root is its contract; README.md in
// this directory is the glossary.
//
//	go run ./benchmark                                   # every workload, untraced then traced
//	go run ./benchmark --workload pipe-write             # one untraced run
//	go run ./benchmark --workload pipe-write --trace 1   # its traced run
//	go run ./benchmark --seed 7 --seconds 15 --out benchmark/out/report.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metricDef is one line of the contract, as BENCHMARK.json states it. The
// end-to-end ones also go into a report, so that compare judges two files
// by the bounds they were run under.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Higher bool    `json:"higher_is_better"`
	Bound  float64 `json:"bound"` // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are measured on the untraced run: what a user of the server
// sees. error_rate is printed beside them but is not in BENCHMARK.json,
// whose metrics may never be 0; the run's attempted/failed counts carry it.
// latency_p99_us is printed too, but the gated tail is p99.9: on the dev
// host p99 sits on the steep part of the distribution and its run-to-run
// spread (up to 0.26) exceeds any bound the contract allows. Every bound is
// the contract's maximum for the same reason: see README, "Steadiness".
var endToEnd = []metricDef{
	{"throughput_ops_s", "commands/s", true, 0.25},
	{"latency_p50_us", "us", false, 0.25},
	{"latency_p999_us", "us", false, 0.25},
	{"cpu_us_per_op", "us", false, 0.25},
	{"rss_mb", "MiB", false, 0.25},
	{"setup_s", "s", false, 0.25},
}

// perLayer are measured on the traced run and defined on every workload.
var perLayer = []metricDef{
	{"client.windows", "count", true, 0},
	{"client.window_p99_us", "us", false, 0},
	{"client.window_max_us", "us", false, 0},
	{"client.write_p50_us", "us", false, 0},
	{"client.wait_p50_us", "us", false, 0},
	{"client.read_p50_us", "us", false, 0},
	{"client.cpu_us_per_op", "us", false, 0},
	{"client.segment_spread", "ratio", false, 0},
	{"client.stream_wraps", "count", false, 0},
	{"trace.overhead_ratio", "ratio", true, 0},
	{"ampserved.cpu_user_us_per_op", "us", false, 0},
	{"ampserved.cpu_sys_us_per_op", "us", false, 0},
	{"ampserved.util_cores", "cores", false, 0},
	{"ampserved.ctx_switches_per_op", "count", false, 0},
	{"ampserved.boot_ms", "ms", false, 0},
	{"ampserved.mallocs_per_op", "count", false, 0},
	{"ampserved.alloc_bytes_per_op", "B", false, 0},
	{"ampserved.gc_pause_us_per_s", "us/s", false, 0},
	{"server.batch_mean", "cmds", true, 0},
	{"server.read_bypass_ratio", "ratio", true, 0},
	{"server.combine_caller_ratio", "ratio", true, 0},
	{"server.parks_per_kop", "1/kop", false, 0},
	{"server.spins_per_kop", "1/kop", false, 0},
	{"server.parse_ns_per_cmd", "ns", false, 0},
	{"server.parse_allocs_per_cmd", "count", false, 0},
	{"mailbox.handoff_ns", "ns", false, 0},
	{"mailbox.handoff_share", "ratio", false, 0},
	{"hashset.ns_per_op", "ns", false, 0},
	{"hashset.allocs_per_op", "count", false, 0},
	{"txn.ns_per_op", "ns", false, 0},
	{"txn.allocs_per_op", "count", false, 0},
	{"txn.commits_s", "1/s", true, 0},
	{"txn.abort_ratio", "ratio", false, 0},
	{"metrics.observe_ns", "ns", false, 0},
}

const (
	defaultSeed    = 11
	defaultSeconds = 18
)

func main() {
	workload := flag.String("workload", "", "run one workload ("+strings.Join(workloadNames(), ", ")+"); empty runs all, untraced then traced")
	seed := flag.Int64("seed", defaultSeed, "workload seed: the same seed gives the same command streams")
	seconds := flag.Int("seconds", defaultSeconds, "measured seconds per run, split into back-to-back segments")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics, spans written to benchmark/out/<workload>.trace.json")
	out := flag.String("out", "", "with no -workload: also write the full report here as JSON")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace == 1, *out); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for _, sp := range specs {
		names = append(names, sp.name)
	}
	return names
}

func run(workload string, seed int64, seconds int, traced bool, out string) error {
	if seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	outDir := filepath.Join(root, "benchmark", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	bin, err := buildServer(root, outDir)
	if err != nil {
		return err
	}
	// One goroutine per connection and at most nproc connections: the
	// generator gets every core the server does, no more.
	runtime.GOMAXPROCS(runtime.NumCPU())

	if workload != "" {
		sp := findSpec(workload)
		if sp == nil {
			return fmt.Errorf("unknown workload %q (have %s)", workload, strings.Join(workloadNames(), ", "))
		}
		res, err := runWorkload(runConfig{sp: sp, seed: seed, seconds: seconds, traced: traced, bin: bin, outDir: outDir})
		if err != nil {
			return err
		}
		printResult(res)
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		if err := printContractLine(res, defs); err != nil {
			return err
		}
		if res.Failed > 0 {
			return fmt.Errorf("%s: %d of %d checks failed", sp.name, res.Failed, res.Attempted)
		}
		return nil
	}

	rep := report{Host: hostInfo(root), Seed: seed, Seconds: seconds, EndToEnd: endToEnd}
	var failed int64
	for i := range specs {
		for _, tr := range []bool{false, true} {
			res, err := runWorkload(runConfig{sp: &specs[i], seed: seed, seconds: seconds, traced: tr, bin: bin, outDir: outDir})
			if err != nil {
				return fmt.Errorf("%s: %w", specs[i].name, err)
			}
			printResult(res)
			failed += res.Failed
			rep.Runs = append(rep.Runs, res)
		}
	}
	rep.Bands = crossBands(rep.Runs)
	for _, b := range rep.Bands {
		printBand(b)
	}
	if out != "" {
		b, err := json.MarshalIndent(rep, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d checks failed", failed)
	}
	return nil
}

// report is the all-workloads output: what results/BENCH_<pr>.json holds
// and what benchmark/compare reads.
type report struct {
	Host     map[string]string `json:"host"`
	Seed     int64             `json:"seed"`
	Seconds  int               `json:"seconds"`
	EndToEnd []metricDef       `json:"end_to_end"`
	Runs     []*result         `json:"runs"`
	Bands    []band            `json:"bands"`
}

func hostInfo(root string) map[string]string {
	commit := "unknown"
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	if b, err := cmd.Output(); err == nil { // a checkout need not be a git repository
		commit = strings.TrimSpace(string(b))
	}
	return map[string]string{
		"nproc":  fmt.Sprint(runtime.NumCPU()),
		"go":     runtime.Version(),
		"goos":   runtime.GOOS + "/" + runtime.GOARCH,
		"commit": commit,
	}
}

// crossBands are the checks that need two workloads' numbers.
func crossBands(runs []*result) []band {
	get := func(workload, name string) float64 {
		for _, r := range runs {
			if r.Workload == workload && !r.Traced {
				return r.Metrics[name].Value
			}
		}
		return 0
	}
	cpu := get("pipe-write", "cpu_us_per_op") / get("pipe-read-hot", "cpu_us_per_op")
	rss := get("pipe-write", "rss_mb") / get("pipe-read-hot", "rss_mb")
	return []band{
		{"pipe-write cpu_us_per_op >= 1.3x pipe-read-hot", cpu >= 1.3, fmt.Sprintf("%.2fx", cpu)},
		{"pipe-write rss_mb >= 3x pipe-read-hot", rss >= 3, fmt.Sprintf("%.2fx", rss)},
	}
}

func printBand(b band) {
	verdict := "ok"
	if !b.OK {
		verdict = "MISSED"
	}
	fmt.Printf("  band    %-52s %s (%s)\n", b.Name, verdict, b.Got)
}

// printResult prints every metric of one run by name with its unit.
func printResult(r *result) {
	kind := "untraced: end-to-end"
	if r.Traced {
		kind = "traced: per-layer"
	}
	fmt.Printf("== %s  seed=%d seconds=%d connections=%d  (%s)\n", r.Workload, r.Seed, r.Seconds, r.Conns, kind)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		// End-to-end names have no dot and come first.
		di, dj := strings.Contains(names[i], "."), strings.Contains(names[j], ".")
		if di != dj {
			return dj
		}
		return names[i] < names[j]
	})
	for _, name := range names {
		m := r.Metrics[name]
		line := fmt.Sprintf("  %-32s %14.4f %s", name, m.Value, m.Unit)
		if len(m.Segments) > 0 {
			line += fmt.Sprintf("   min %.4f max %.4f of %.4f", m.Min, m.Max, m.Segments)
		}
		if m.Samples > 0 {
			line += fmt.Sprintf("   n=%d", m.Samples)
		}
		fmt.Println(line)
	}
	absent := make([]string, 0, len(r.Absent))
	for name := range r.Absent {
		absent = append(absent, name)
	}
	sort.Strings(absent)
	for _, name := range absent {
		fmt.Printf("  %-32s %14s   %s\n", name, "absent", r.Absent[name])
	}
	if len(r.SelfTime) > 0 {
		var spans []string
		for name := range r.SelfTime {
			spans = append(spans, name)
		}
		sort.Strings(spans)
		for _, name := range spans {
			st := r.SelfTime[name]
			fmt.Printf("  span    %-28s n=%-6d total %10.3f ms   self %10.3f ms\n", name, st.Count, float64(st.TotalNs)/1e6, float64(st.SelfNs)/1e6)
		}
	}
	for _, b := range r.Bands {
		printBand(b)
	}
	fmt.Printf("  checks  attempted=%d failed=%d\n", r.Attempted, r.Failed)
	for _, e := range r.Errors {
		fmt.Printf("  error   %s\n", e)
	}
}

// printContractLine prints the last line the driver reads: exactly the
// metrics BENCHMARK.json lists for this kind of run.
func printContractLine(r *result, defs []metricDef) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]value{}}
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		if !ok {
			return fmt.Errorf("%s: %s is absent: %s", r.Workload, d.Name, r.Absent[d.Name])
		}
		line.Metrics[d.Name] = value{m.Value, d.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
