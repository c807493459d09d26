// Package amp is a Go reproduction of Herlihy & Shavit, The Art of
// Multiprocessor Programming (PODC 2006 keynote; Morgan Kaufmann 2008):
// every algorithm family the book develops, built on the Go standard
// library, with the measurement harness that regenerates the book's
// figures.
//
// The implementation lives under internal/:
//
//	core       histories, linearizability checking, thread IDs (Ch. 3)
//	register   register constructions and atomic snapshots (Ch. 4)
//	consensus  consensus protocols and universal constructions (Ch. 5–6)
//	mutex      Peterson, Filter, Bakery, tournament locks (Ch. 2)
//	spin       TAS/TTAS/backoff/ALock/CLH/MCS/TOLock (Ch. 7)
//	rwlock     semaphores and readers–writers locks (Ch. 8)
//	list       coarse/fine/optimistic/lazy/lock-free list sets (Ch. 9)
//	queue      bounded, two-lock, Michael–Scott, synchronous queues (Ch. 10)
//	epoch      epoch-based memory reclamation for the lock-free backends
//	stack      Treiber and elimination-backoff stacks (Ch. 11)
//	counting   combining trees and counting networks (Ch. 12)
//	hashset    striped/refinable/split-ordered/cuckoo hash sets (Ch. 13)
//	strmap     the Ch. 13 lock disciplines as string→int64 maps: coarse,
//	           striped, refinable, chained phased cuckoo (FNV-1a hashing)
//	skiplist   lazy and lock-free skiplists (Ch. 14)
//	pqueue     bounded pools, fine-grained heap, skip-queue (Ch. 15)
//	steal      work-stealing deques and executors (Ch. 16)
//	barrier    sense-reversing, tree, static-tree, dissemination (Ch. 17)
//	stm        TL2-style software transactional memory (Ch. 18)
//	bench      workload generators and the experiment harness
//	server     ampserved: a sharded TCP server over the structures above,
//	           with per-family backend selection (pipelined line protocol
//	           with per-shard batching and flat combining, graceful
//	           shutdown). Commands cover int-keyed sets (SET/GET/DEL),
//	           string-keyed maps (HSET/HGET/HDEL, routed by FNV-1a with
//	           per-shard chaining on the full key), queues, stacks,
//	           counters, and priority queues.
//	metrics    op counters and latency histograms built on the Ch. 12
//	           counting structures
//
// Binaries: cmd/ampserved serves the structures over TCP (see
// internal/server for the protocol); cmd/ampbench regenerates the
// evaluation tables (experiments E1–E16, see DESIGN.md and
// EXPERIMENTS.md) and, with -serve-addr, load-tests a running ampserved;
// cmd/linearize checks recorded histories for linearizability. Runnable
// walkthroughs live in examples/.
//
// # Memory reclamation
//
// The book's CAS-based structures lean on the garbage collector for two
// distinct guarantees: ABA safety (a freed-and-reallocated node can
// never alias a pending CAS expectation) and safe memory reclamation (a
// node is never reused while a concurrent reader can still reach it).
// The repo offers all three reclamation strategies, selectable as
// server backends:
//
//   - GC-backed (queue.LockFreeQueue, list.LockFreeList,
//     skiplist.LockFreeSkipList): both guarantees come from the
//     collector; every insert allocates. Simplest, and the baseline the
//     others are measured against.
//   - Stamped pool (queue.RecyclingQueue, §10.6): a fixed node pool with
//     (index, stamp) packed references. Allocation-free and bounded, at
//     the price of a capacity limit and hand-built stamp discipline.
//   - Epoch-based (internal/epoch; queue.EpochQueue, list.EpochList,
//     skiplist.EpochSkipList): operations pin an epoch record, retired
//     nodes wait out a two-epoch grace period, then recycle through
//     per-slot pools. Unbounded and 0 allocs/op at steady state — the
//     property CI's bench job enforces (see EXPERIMENTS.md E16).
//
// The benchmarks in bench_test.go expose every experiment through
// `go test -bench`.
package amp
