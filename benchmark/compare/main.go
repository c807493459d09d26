// Command compare judges two reports written by `go run ./benchmark --out`:
// for every workload and end-to-end metric it prints both medians, the
// ratio B ÷ A (A is the base), the bound, and a verdict.
//
//	go run ./benchmark/compare A.json B.json
//
// Verdicts: worse = B is worse than A by more than the bound; better = B is
// better by more than the bound; within-bound otherwise; unresolved = the
// segments of a side spread wider than the bound and the two sides'
// segments overlap, so the medians cannot be told apart. It exits 1 when
// any metric is worse.
package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

type metric struct {
	Value    float64   `json:"value"`
	Unit     string    `json:"unit"`
	Min      float64   `json:"min"`
	Max      float64   `json:"max"`
	Segments []float64 `json:"segments"`
}

type run struct {
	Workload string            `json:"workload"`
	Traced   bool              `json:"traced"`
	Failed   int64             `json:"failed"`
	Metrics  map[string]metric `json:"metrics"`
}

type def struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Higher bool    `json:"higher_is_better"`
	Bound  float64 `json:"bound"`
}

type report struct {
	Host     map[string]string `json:"host"`
	Seed     int64             `json:"seed"`
	EndToEnd []def             `json:"end_to_end"`
	Runs     []run             `json:"runs"`
}

func (r *report) find(workload string, traced bool) *run {
	for i := range r.Runs {
		if r.Runs[i].Workload == workload && r.Runs[i].Traced == traced {
			return &r.Runs[i]
		}
	}
	return nil
}

const (
	noisySpread  = 0.25 // client.segment_spread above this: the run, not the server, moved
	generatorGap = 0.10 // client.cpu_us_per_op apart by more than this: the generator changed
)

// segSpread is (max − min) / median of a metric's segments, 0 when it has
// none (rss_mb is read once).
func segSpread(m metric) float64 {
	if len(m.Segments) < 2 || m.Value == 0 {
		return 0
	}
	return (m.Max - m.Min) / m.Value
}

// verdict compares B against base A under the metric's direction and bound.
func verdict(a, b metric, d def) string {
	worse := (b.Value - a.Value) / a.Value
	if d.Higher {
		worse = -worse
	}
	overlap := len(a.Segments) > 1 && len(b.Segments) > 1 && a.Min <= b.Max && b.Min <= a.Max
	switch {
	case math.Max(segSpread(a), segSpread(b)) > d.Bound && overlap:
		return "unresolved"
	case worse > d.Bound:
		return "worse"
	case worse < -d.Bound:
		return "better"
	}
	return "within-bound"
}

func load(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(r.Runs) == 0 || len(r.EndToEnd) == 0 {
		return nil, fmt.Errorf("%s: not a benchmark report (no runs or no end_to_end)", path)
	}
	return &r, nil
}

// compare prints the table and returns how many metrics are worse.
func compare(a, b *report) int {
	fmt.Printf("A: commit %s seed %d nproc %s %s\n", a.Host["commit"], a.Seed, a.Host["nproc"], a.Host["go"])
	fmt.Printf("B: commit %s seed %d nproc %s %s\n", b.Host["commit"], b.Seed, b.Host["nproc"], b.Host["go"])
	worse := 0
	seen := map[string]bool{}
	for _, ra := range a.Runs {
		if ra.Traced || seen[ra.Workload] {
			continue
		}
		seen[ra.Workload] = true
		rb := b.find(ra.Workload, false)
		if rb == nil {
			fmt.Printf("\n%s: only in A\n", ra.Workload)
			continue
		}
		fmt.Printf("\n%s\n", ra.Workload)
		for _, side := range []struct {
			name string
			r    *report
		}{{"A", a}, {"B", b}} {
			if tr := side.r.find(ra.Workload, true); tr != nil {
				if s := tr.Metrics["client.segment_spread"].Value; s > noisySpread {
					fmt.Printf("  noisy: side %s has client.segment_spread %.2f > %.2f\n", side.name, s, noisySpread)
				}
			}
		}
		if ta, tb := a.find(ra.Workload, true), b.find(ra.Workload, true); ta != nil && tb != nil {
			ca, cb := ta.Metrics["client.cpu_us_per_op"].Value, tb.Metrics["client.cpu_us_per_op"].Value
			if ca > 0 && math.Abs(cb-ca)/ca > generatorGap {
				fmt.Printf("  noisy: client.cpu_us_per_op is %.3f in A and %.3f in B: the generator moved, not only the server\n", ca, cb)
			}
		}
		if ra.Failed > 0 || rb.Failed > 0 {
			fmt.Printf("  failed checks: A %d, B %d\n", ra.Failed, rb.Failed)
		}
		for _, d := range a.EndToEnd {
			ma, okA := ra.Metrics[d.Name]
			mb, okB := rb.Metrics[d.Name]
			if !okA || !okB || ma.Value == 0 {
				fmt.Printf("  %-18s missing on a side\n", d.Name)
				continue
			}
			v := verdict(ma, mb, d)
			if v == "worse" {
				worse++
			}
			better := "lower"
			if d.Higher {
				better = "higher"
			}
			fmt.Printf("  %-18s A %14.4f  B %14.4f %-10s  B/A %.3f (base A)  %s is better, bound %.2f  %s\n",
				d.Name, ma.Value, mb.Value, d.Unit, mb.Value/ma.Value, better, d.Bound, v)
		}
	}
	return worse
}

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: go run ./benchmark/compare A.json B.json")
		os.Exit(2)
	}
	a, err := load(os.Args[1])
	if err == nil {
		var b *report
		if b, err = load(os.Args[2]); err == nil {
			if compare(a, b) > 0 {
				os.Exit(1)
			}
			return
		}
	}
	fmt.Fprintln(os.Stderr, "compare:", err)
	os.Exit(2)
}
