package core

import "fmt"

// Snapshot consistency is the part of opacity (§18.3's "no zombies") that
// a commit/abort count cannot show: every transaction attempt, aborted
// ones included, must have read values that all held at one moment.
//
// The check needs a total order of writes, so the history it takes has ONE
// writer: log[i] is the i-th commit in that writer's program order, the
// set of (key, value) pairs the commit wrote together. log[0] is the
// initial state. A value is valid from the commit that wrote it up to the
// next commit writing its key, and an attempt is consistent iff the
// validity intervals of its reads share a point of the log.

// KV is one key with the value written to it or read from it.
type KV[V comparable] struct {
	Key string
	Val V
}

// span is the run of log positions [from, to) over which a key held a value.
type span struct{ from, to int }

// CheckSnapshots reports the first attempt whose reads no single point of
// the write log explains, or nil. A value written several times to a key
// (a delete, say) matches any of its versions.
func CheckSnapshots[V comparable](log [][]KV[V], attempts [][]KV[V]) error {
	// held[kv] lists, in log order, the spans over which kv.Key held kv.Val.
	held := make(map[KV[V]][]span)
	current := make(map[string]KV[V])
	for i, commit := range log {
		for _, w := range commit {
			if prev, written := current[w.Key]; written {
				held[prev][len(held[prev])-1].to = i // empty if rewritten within commit i
			}
			current[w.Key] = w
			held[w] = append(held[w], span{i, len(log)})
		}
	}
	for a, reads := range attempts {
		live := []span{{0, len(log)}}
		for _, r := range reads {
			live = intersect(live, held[r])
		}
		if len(live) == 0 {
			return fmt.Errorf("attempt %d read %v: no point of the %d-commit write log holds all of these values", a, reads, len(log))
		}
	}
	return nil
}

// intersect returns the non-empty overlaps of two ascending span lists.
func intersect(a, b []span) (out []span) {
	for len(a) > 0 && len(b) > 0 {
		if s := (span{max(a[0].from, b[0].from), min(a[0].to, b[0].to)}); s.from < s.to {
			out = append(out, s)
		}
		if a[0].to < b[0].to {
			a = a[1:]
		} else {
			b = b[1:]
		}
	}
	return out
}
