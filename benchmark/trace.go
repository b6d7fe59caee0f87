package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one sampled operation share
// Req; Parent is the ID of the enclosing span (0 for a root). Start and End
// are nanoseconds since the tracer's epoch.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Label  string `json:"label,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Counts carry the work the span did: nnz, bytes, levels, msgs, words.
	NNZ    int64 `json:"nnz,omitempty"`
	Bytes  int64 `json:"bytes,omitempty"`
	Levels int64 `json:"levels,omitempty"`
	Msgs   int64 `json:"msgs,omitempty"`
	Words  int64 `json:"words,omitempty"`
	// Cache is the serving outcome of a request span (hit, miss, dedup).
	Cache string `json:"cache,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written out once the run ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its ID; end closes it.
func (t *tracer) begin(name, label string, parent, req int) int {
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Label: label, Start: start})
	return id
}

func (t *tracer) end(id int) {
	end := t.now()
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// annotate updates a span's counts under the lock.
func (t *tracer) annotate(id int, fn func(s *span)) {
	t.mu.Lock()
	fn(&t.spans[id-1])
	t.mu.Unlock()
}

// call times fn as a child span of parent.
func (t *tracer) call(name, label string, parent, req int, fn func()) {
	id := t.begin(name, label, parent, req)
	fn()
	t.end(id)
}

// record adds a span whose interval was measured elsewhere (a request timed
// by a load-generator goroutine).
func (t *tracer) record(s span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
}

// snapshot returns a copy of every span.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// children groups spans by their parent's ID.
func children(spans []span) map[int][]span {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	return kids
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover, indexed by span ID - 1.
func selfTimes(spans []span) []time.Duration {
	kids := children(spans)
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals clipped
// to the parent's.
func covered(parent span, children []span) time.Duration {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, end int64
	end = parent.Start
	for _, v := range ivs {
		if v.hi <= end {
			continue
		}
		total += v.hi - max(v.lo, end)
		end = v.hi
	}
	return time.Duration(total)
}

// checkNesting reports the first span that does not lie inside its parent.
func checkNesting(spans []span) error {
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		if s.Parent < 1 || s.Parent > len(spans) {
			return fmt.Errorf("span %d (%s) has unknown parent %d", s.ID, s.Name, s.Parent)
		}
		p := spans[s.Parent-1]
		if s.Start < p.Start || s.End > p.End || s.Req != p.Req {
			return fmt.Errorf("span %d (%s) is not inside its parent %d (%s)", s.ID, s.Name, p.ID, p.Name)
		}
	}
	return nil
}

// layerTimes sums, per request, the self time of every span with the given
// name (and label, when label is not empty).
func layerTimes(spans []span, self []time.Duration, name, label string) map[int]time.Duration {
	out := map[int]time.Duration{}
	for i, s := range spans {
		if s.Name == name && (label == "" || s.Label == label) {
			out[s.Req] += self[i]
		}
	}
	return out
}

// childTimes returns, per request, how much of each span named parent its
// children cover: the sum of the children when they run one after another.
func childTimes(spans []span, parent string) map[int]time.Duration {
	kids := children(spans)
	out := map[int]time.Duration{}
	for _, s := range spans {
		if s.Name == parent {
			out[s.Req] += covered(s, kids[s.ID])
		}
	}
	return out
}

// diff returns a − b for the requests present in both.
func diff(a, b map[int]time.Duration) map[int]time.Duration {
	out := map[int]time.Duration{}
	for _, r := range sortedKeys(a) {
		if v, ok := b[r]; ok {
			out[r] = a[r] - v
		}
	}
	return out
}

// medianMBps is the median over spans named name of their bytes over their
// self time, in MB/s.
func medianMBps(spans []span, self []time.Duration, name string) float64 {
	var rates []float64
	for i, s := range spans {
		if s.Name == name {
			rates = append(rates, ratio(float64(s.Bytes)/1e6, self[i].Seconds()))
		}
	}
	return median(rates)
}

// medianMs is the median of a per-request map in milliseconds.
func medianMs(m map[int]time.Duration) float64 {
	vals := make([]time.Duration, 0, len(m))
	for _, r := range sortedKeys(m) {
		vals = append(vals, m[r])
	}
	return median(ms(vals))
}

// writeSpans writes every span as a JSON array.
func writeSpans(path string, spans []span) error {
	data, err := json.MarshalIndent(spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
