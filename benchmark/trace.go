package main

import (
	"encoding/json"
	"os"
	"sort"
)

// span is one traced interval, in nanoseconds since the run's epoch.
// Spans of one window share Ref ("conn:seq").
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Name   string `json:"name"`
	Ref    string `json:"ref,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	spans []span
}

func (t *tracer) add(parent int, name, ref string, start, end int64) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Ref: ref, Start: start, End: end})
	return id
}

// selfTime is a span name's total duration and the part of it no child
// span covers.
type selfTime struct {
	Count   int   `json:"count"`
	TotalNs int64 `json:"total_ns"`
	SelfNs  int64 `json:"self_ns"`
}

// selfTimes computes, per span name, duration minus the union of the
// children's intervals clipped to the parent.
func selfTimes(spans []span) map[string]selfTime {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	out := map[string]selfTime{}
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered int64
		at := s.Start // everything before at is already counted
		for _, k := range kids {
			lo, hi := max(k.Start, at), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				at = hi
			}
		}
		st := out[s.Name]
		st.Count++
		st.TotalNs += s.End - s.Start
		st.SelfNs += s.End - s.Start - covered
		out[s.Name] = st
	}
	return out
}

// traceFile is what a traced run writes when it ends.
type traceFile struct {
	Workload string              `json:"workload"`
	Seed     int64               `json:"seed"`
	Note     string              `json:"note"`
	SelfTime map[string]selfTime `json:"self_time"`
	Spans    []span              `json:"spans"`
}

func (t *tracer) write(path, workload string, seed int64, self map[string]selfTime) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(traceFile{
		Workload: workload, Seed: seed,
		Note:     "times are ns since the run's epoch; client.window spans are sampled, see benchmark/README.md",
		SelfTime: self, Spans: t.spans,
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
