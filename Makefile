# Entry points for the tier-1 verify, the benchmarks, and the server.

GO ?= go
ADDR ?= 127.0.0.1:7171

.PHONY: build test race vet loc bench bench-ci bench-record bench-check serve load

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Non-test, non-blank Go lines per package and in total: what ROADMAP's
# line targets are read off. CI appends it to the lint job's summary.
loc:
	@$(GO) list -f '{{.ImportPath}}{{range .GoFiles}} {{$$.Dir}}/{{.}}{{end}}' ./... | \
	while read -r pkg files; do \
		[ -n "$$files" ] && printf '%6d %s\n' "$$(cat $$files | grep -c '[^[:space:]]')" "$$pkg"; \
	done | awk '{ print; n += $$1 } END { printf "%6d total\n", n }'

bench:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# The CI gates, runnable locally: pinned subset, 5 repeats. Fails if any
# epoch steady-state bench — including the wait-free read bypass path —
# allocates, if the txn bench stops committing, or if the pipelined or
# snapshot-under-load server paths regress past their per-spec ratio over
# the checked-in BENCH_baseline.json. Writes BENCH_ci.json; in CI the ratio
# comparison also lands in the step summary as a markdown table.
bench-ci:
	$(GO) test -run='^$$' -bench='Epoch.*Steady|LockFree.*(EnqDeq|AddRemove)' -benchmem -count=5 \
		./internal/queue ./internal/list ./internal/skiplist | tee bench.txt
	$(GO) test -run='^$$' -bench='BenchmarkServerTCP(Pipelined|StringMap|Txn|ReadMostly|Snapshot)|BenchmarkReadBypassSteady' -benchmem -count=5 \
		./internal/server | tee -a bench.txt
	$(GO) test -run='^$$' -bench='BenchmarkMailboxVsChan' -benchmem -count=5 \
		./internal/mailbox | tee -a bench.txt
	$(GO) run ./cmd/benchgate -in bench.txt -out BENCH_ci.json -gate 'Epoch.*Steady|ReadBypassSteady' \
		-require 'ServerTCPTxn:commits/op' \
		-baseline BENCH_baseline.json \
		-ratio 'ServerTCPPipelined:1.15,ServerTCPSnapshot:1.40'

# One trajectory point: the repo benchmark's full report (every workload,
# untraced then traced), checked in at the repo root as BENCH_<pr>.json —
# outside BENCHMARK.json's paths, so any PR may add its own.
#	make bench-record PR=21
bench-record:
	@test -n "$(PR)" || { echo 'usage: make bench-record PR=<number>'; exit 2; }
	$(GO) run ./benchmark --out BENCH_$(PR).json

# Every checked-in trajectory point must still parse as a benchmark report
# (BENCH_baseline.json is benchgate's format, not a report).
bench-check:
	@for f in BENCH_[0-9]*.json; do \
		[ -e "$$f" ] || continue; \
		$(GO) run ./benchmark/compare "$$f" "$$f" >/dev/null || { echo "$$f: not a benchmark report"; exit 1; }; \
	done

serve:
	$(GO) run ./cmd/ampserved -addr $(ADDR)

load:
	$(GO) run ./cmd/ampbench -serve-addr $(ADDR) -clients 16 -ops 5000
