package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code around the layer's public function. Spans of one op share Op;
// Parent is the enclosing span, -1 for the op's root.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Op     int32  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so one code path serves the traced and the untraced replay.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// open starts a span and returns its ID.
func (t *tracer) open(name string, op, parent int32) int32 {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now, End: now})
	return id
}

// close ends the span id.
func (t *tracer) close(id int32) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// record adds a finished span from two wall-clock instants, for intervals
// a layer reports itself (a job's queue wait).
func (t *tracer) record(name string, op, parent int32, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: int32(len(t.spans)), Parent: parent, Op: op, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
}

// The analysis below runs after the traced window, when no goroutine
// records any more.

// total returns the summed duration of the spans named name, in seconds,
// and how many there are.
func (t *tracer) total(name string) (float64, int) {
	var sum float64
	n := 0
	for _, s := range t.spans {
		if s.Name == name {
			sum += s.seconds()
			n++
		}
	}
	return sum, n
}

func (t *tracer) children() map[int32][]span {
	kids := map[int32][]span{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	return kids
}

// selfTime returns the summed self time of the spans named name, in
// seconds: each span's duration minus the part of it that its children
// cover (children running in parallel cover an instant once).
func (t *tracer) selfTime(name string) float64 {
	kids := t.children()
	var sum float64
	for _, s := range t.spans {
		if s.Name == name {
			sum += s.seconds() - covered(s, kids[s.ID])
		}
	}
	return sum
}

// covered returns the seconds of parent's interval that the union of the
// children's intervals covers.
func covered(parent span, kids []span) float64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var sum, end int64
	end = parent.Start
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		sum += v.b - max(v.a, end)
		end = v.b
	}
	return float64(sum) / 1e9
}

// checkNesting verifies that every span lies inside its parent's interval
// and belongs to its parent's op.
func (t *tracer) checkNesting() error {
	for _, s := range t.spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d %s ends before it starts", s.ID, s.Name)
		}
		if s.Parent < 0 {
			continue
		}
		p := t.spans[s.Parent]
		if s.Op != p.Op || s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d %s [%d,%d] op %d is not inside parent %d %s [%d,%d] op %d",
				s.ID, s.Name, s.Start, s.End, s.Op, p.ID, p.Name, p.Start, p.End, p.Op)
		}
	}
	return nil
}

// checkSpans records the nesting check as an output check.
func checkSpans(out *outcome, t *tracer) {
	msg := fmt.Sprintf("spans nest inside their parents and ops (%d spans)", len(t.spans))
	err := t.checkNesting()
	if err != nil {
		msg += ": " + err.Error()
	}
	out.check(err == nil, "%s", msg)
}

// wallShares splits the wall time of every root span among the innermost
// spans open beneath it: an instant during which k open spans have no open
// child gives each of them 1/k of it. A leaf's share goes to its name; the
// share of a span with children goes to "<name>.self", the part of it that
// none of its children covers. These are the stages, and their shares are
// returned in seconds. An instant that no span beneath a root covers is
// time the trace leaves unattributed; its total is returned apart, so the
// stages and the unattributed time sum to the total root time.
func (t *tracer) wallShares() (stages map[string]float64, unattributed float64) {
	kids := t.children()
	stages = map[string]float64{}
	for _, root := range t.spans {
		if root.Parent >= 0 {
			continue
		}
		type event struct {
			at    int64
			delta int
			id    int32
		}
		events := []event{{at: root.End}}
		stack := append([]span(nil), kids[root.ID]...)
		for len(stack) > 0 {
			s := stack[len(stack)-1]
			stack = append(stack[:len(stack)-1], kids[s.ID]...)
			events = append(events, event{s.Start, 1, s.ID}, event{s.End, -1, s.ID})
		}
		sort.SliceStable(events, func(i, j int) bool { return events[i].at < events[j].at })
		open := map[int32]int{}     // span ID → 1 while it is open
		openKids := map[int32]int{} // span ID → its children that are open
		var inner []int32
		prev := root.Start
		for _, e := range events {
			if dt := float64(e.at-prev) / 1e9; dt > 0 {
				inner = inner[:0]
				for id, c := range open {
					if c > 0 && openKids[id] <= 0 {
						inner = append(inner, id)
					}
				}
				if len(inner) == 0 {
					unattributed += dt
				}
				for _, id := range inner {
					name := t.spans[id].Name
					if len(kids[id]) > 0 {
						name += ".self"
					}
					stages[name] += dt / float64(len(inner))
				}
				prev = e.at
			}
			if e.delta != 0 {
				open[e.id] += e.delta
				if p := t.spans[e.id].Parent; p != root.ID {
					openKids[p] += e.delta
				}
			}
		}
	}
	return stages, unattributed
}

// write stores the spans as JSON lines in dir/name.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// checkStages prints the wall-time attribution per op and checks, as an
// output check, that the stages sum to the untraced op time of the same
// run within slack. Time the trace leaves unattributed is printed but not
// counted, so a trace that misses part of an op fails the check.
func checkStages(out *outcome, t *tracer, ops int, untracedMs, slack float64) {
	stages, unattributed := t.wallShares()
	names := make([]string, 0, len(stages))
	for n := range stages {
		names = append(names, n)
	}
	sort.Strings(names)
	perOp := func(s float64) float64 { return s / float64(ops) * 1e3 }
	var sum float64
	for _, n := range names {
		sum += perOp(stages[n])
		out.note("stage %s %.4f ms/op", n, perOp(stages[n]))
	}
	out.note("unattributed %.4f ms/op (op time no stage span covers, not counted)", perOp(unattributed))
	dev := sum/untracedMs - 1
	out.check(math.Abs(dev) <= slack, "stage spans sum to %.4f ms/op vs untraced op time %.4f ms/op: %+.1f%%, within ±%.0f%%",
		sum, untracedMs, 100*dev, 100*slack)
}
