// Step-summary rendering: the ratio gate's evidence as a markdown
// comparison table, written to $GITHUB_STEP_SUMMARY so a CI run shows
// baseline vs current ns/op per gated benchmark without digging through
// logs.
package main

import (
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// RatioSpec is one parsed -ratio entry: benchmarks matching Pattern must
// stay within Max × their baseline ns/op.
type RatioSpec struct {
	Pattern string
	Max     float64
}

// parseRatioSpecs splits a comma-separated -ratio value into specs:
// "ServerTCPPipelined:1.15,ServerTCPSnapshot:1.40". Patterns therefore
// cannot contain commas; anchor with ^$ instead of enumerating.
func parseRatioSpecs(s string) ([]RatioSpec, error) {
	var specs []RatioSpec
	for _, part := range strings.Split(s, ",") {
		pat, maxStr, ok := strings.Cut(part, ":")
		var max float64
		var err error
		if ok {
			max, err = strconv.ParseFloat(maxStr, 64)
		}
		if !ok || pat == "" || err != nil || max <= 0 {
			return nil, fmt.Errorf("-ratio wants comma-separated 'pattern:max' specs with max > 0, got %q", part)
		}
		specs = append(specs, RatioSpec{Pattern: pat, Max: max})
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("-ratio is empty")
	}
	return specs, nil
}

// SummaryTable renders the markdown comparison table for every benchmark
// matching any ratio spec: baseline ns/op, current ns/op, the ratio, and
// a verdict against the spec's max. A benchmark without a baseline entry
// gets a "no baseline" verdict (the gate itself fails that case; the
// table still shows what was measured).
func SummaryTable(r, base *Report, specs []RatioSpec) (string, error) {
	baseNs := make(map[string]float64)
	for _, b := range base.Benchmarks {
		baseNs[normalizeName(b.Name)] = b.NsPerOp
	}

	type row struct {
		name                string
		baseline, current   float64
		hasBaseline, within bool
		max                 float64
	}
	var rows []row
	for _, spec := range specs {
		re, err := regexp.Compile(spec.Pattern)
		if err != nil {
			return "", fmt.Errorf("bad -ratio pattern %q: %v", spec.Pattern, err)
		}
		for _, b := range r.Benchmarks {
			if !re.MatchString(b.Name) {
				continue
			}
			ref, ok := baseNs[normalizeName(b.Name)]
			rows = append(rows, row{
				name: b.Name, baseline: ref, current: b.NsPerOp,
				hasBaseline: ok && ref > 0,
				within:      ok && ref > 0 && b.NsPerOp/ref <= spec.Max,
				max:         spec.Max,
			})
		}
	}

	var sb strings.Builder
	sb.WriteString("### benchgate: ns/op vs baseline\n\n")
	sb.WriteString("| benchmark | baseline ns/op | current ns/op | ratio | verdict |\n")
	sb.WriteString("|---|---:|---:|---:|---|\n")
	for _, row := range rows {
		switch {
		case !row.hasBaseline:
			fmt.Fprintf(&sb, "| %s | — | %.1f | — | ⚠️ no baseline |\n", row.name, row.current)
		case row.within:
			fmt.Fprintf(&sb, "| %s | %.1f | %.1f | %.2f× | ✅ within %.2f× |\n",
				row.name, row.baseline, row.current, row.current/row.baseline, row.max)
		default:
			fmt.Fprintf(&sb, "| %s | %.1f | %.1f | %.2f× | ❌ over %.2f× |\n",
				row.name, row.baseline, row.current, row.current/row.baseline, row.max)
		}
	}
	if len(rows) == 0 {
		sb.WriteString("| _no benchmarks matched the ratio specs_ | — | — | — | — |\n")
	}
	return sb.String(), nil
}

// writeSummary appends markdown to the step-summary file. An empty path
// (not running under GitHub Actions, no -summary override) is a no-op.
func writeSummary(path, md string) error {
	if path == "" {
		return nil
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = f.WriteString(md + "\n")
	return err
}
