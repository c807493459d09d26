// Package txn layers cross-key atomic transactions over the Chapter 18
// STM engines. A Keyspace owns the string-map and counter families as
// per-key transactional variables; staged protocol commands become an Op
// list executed atomically by Exec, so a MULTI/EXEC buffer commits across
// keys — including keys that the server shards apart — through the STM's
// commit protocol (TL2 commit-time versioned locks, or DSTM status-word
// CAS) rather than any 2-phase dance over shard mailboxes.
//
// The single-key path (Get/Set/Del/Incr, Inc/Counter) goes through the
// same tvars without running a transaction: a write is the engine's
// one-location commit (stm.TVar.Update: the tvar's versioned lock and the
// global clock; stm.OFTVar.Update: one pre-committed locator), which is
// all an Exec attempt validates against. So plain traffic and transactions
// are mutually linearizable — a plain HGET can never observe a torn EXEC —
// and every Exec attempt, aborted ones included, reads one snapshot.
package txn

import (
	"fmt"
	"sort"
	"strings"
)

// Kind enumerates the operations a transaction can stage.
type Kind uint8

const (
	// Get reads a key: Result{Val: value, Flag: present}.
	Get Kind = iota
	// Set writes Val to a key: Result{Val: value, Flag: inserted}.
	Set
	// Del removes a key: Result{Flag: removed}.
	Del
	// Incr adds Val to a key (absent keys start at 0 and are created):
	// Result{Val: new value, Flag: true}.
	Incr
	// CtrInc takes a counter ticket: Result{Val: old value}.
	CtrInc
	// CtrRead reads the counter: Result{Val: value}.
	CtrRead
)

// Op is one staged operation. Key and Val are meaningful per Kind.
type Op struct {
	Kind Kind
	Key  string
	Val  int64
}

// Result is one operation's outcome; see the Kind constants for the
// meaning of its fields.
type Result struct {
	Val  int64
	Flag bool
}

// Keyspace is a transactional key/value universe plus a shared counter.
// The single-op methods are the non-transactional fast path; Exec commits
// a whole Op list atomically. All methods are safe for concurrent use
// from any goroutine.
type Keyspace interface {
	// Get reads one key without writing (a committed-snapshot read).
	Get(key string) (int64, bool)
	// Set writes v, reporting whether the key was absent before.
	Set(key string, v int64) (inserted bool)
	// Del removes the key, reporting whether it was present.
	Del(key string) (removed bool)
	// Incr adds delta (absent keys start at 0) and returns the new value.
	Incr(key string, delta int64) int64
	// Inc takes a counter ticket, returning the pre-increment value.
	Inc() int64
	// Counter reads the counter.
	Counter() int64
	// Exec applies ops as one atomic transaction, returning one Result
	// per op in order.
	Exec(ops []Op) []Result
	// Range calls f for each present key with its committed value until
	// f returns false (tombstoned keys are skipped). Each read is an
	// atomic committed-cell load, but the enumeration as a whole is a
	// consistent cut only when the caller has quiesced committers — the
	// server's snapshot path holds its EXEC gate and shard combiner
	// locks across it.
	Range(f func(key string, v int64) bool)
	// SetCounter overwrites the shared counter (snapshot restore).
	SetCounter(v int64)
	// Commits and Aborts expose the engine's transaction statistics
	// (fast-path single-op transactions included).
	Commits() int64
	Aborts() int64
}

// cell is the value of one key's tvar. Deleted keys keep a tombstone
// cell (present=false) so later transactions still validate against it;
// cells are created once per key and never replaced.
type cell struct {
	v       int64
	present bool
}

// engines maps -txn names to constructors. The cm argument is the
// contention-manager name; TL2 commits through versioned locks and
// ignores it.
var engines = map[string]func(cm string) Keyspace{
	"tl2":  func(string) Keyspace { return newTL2() },
	"dstm": func(cm string) Keyspace { return newDSTM(cm) },
}

// New builds the keyspace for the named engine and contention manager.
// The manager name is validated for every engine so a typo is caught even
// when the engine does not consult it.
func New(engine, cm string) (Keyspace, error) {
	if err := CheckManager(cm); err != nil {
		return nil, err
	}
	f, ok := engines[engine]
	if !ok {
		return nil, fmt.Errorf("txn: unknown engine %q (have %s)",
			engine, strings.Join(Engines(), ", "))
	}
	return f(cm), nil
}

// CheckManager validates a contention-manager name.
func CheckManager(cm string) error {
	if _, ok := managers[cm]; !ok {
		return fmt.Errorf("txn: unknown contention manager %q (have %s)",
			cm, strings.Join(Managers(), ", "))
	}
	return nil
}

// Engines lists the valid engine names, sorted.
func Engines() []string { return sortedNames(engines) }

// Managers lists the valid contention-manager names, sorted.
func Managers() []string { return sortedNames(managers) }

func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
