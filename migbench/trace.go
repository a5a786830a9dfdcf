package main

import (
	"sort"
	"time"

	"repro/internal/obs"
)

// spanStats is the traced time of one span name: how many spans, their
// total duration, and their total self time.
type spanStats struct {
	n    int
	dur  time.Duration
	self time.Duration
}

// selfTimes returns the per-name totals of a span set. A span's self
// time is its duration minus the part of it that its children cover.
//
// A child is normally the span its ParentID names. Some spans outlive
// the call that started their trace: the destination's lib.resume is
// parented under the delivery that stored the envelope, which ended long
// before the restore ran. Such a span, whose named parent does not cover
// it, is attributed to the innermost span of the same trace that does,
// which is the benchmark's span around the restoring call. A span no
// other span covers is a root.
func selfTimes(spans []obs.Span) map[string]spanStats {
	byTrace := make(map[uint64][]int)
	byID := make(map[uint64]int, len(spans))
	for i, s := range spans {
		byTrace[s.TraceID] = append(byTrace[s.TraceID], i)
		byID[s.SpanID] = i
	}
	covers := func(p, c *obs.Span) bool {
		return !p.Start.After(c.Start) && !p.EndTime().Before(c.EndTime())
	}
	children := make(map[int][]int)
	for _, idx := range byTrace {
		for _, ci := range idx {
			c := &spans[ci]
			if pi, ok := byID[c.ParentID]; ok && pi != ci && spans[pi].TraceID == c.TraceID && covers(&spans[pi], c) {
				children[pi] = append(children[pi], ci)
				continue
			}
			best := -1
			for _, pi := range idx {
				p := &spans[pi]
				if pi == ci || !covers(p, c) {
					continue
				}
				// Equal intervals: the earlier span is the outer one.
				if p.Start.Equal(c.Start) && p.Dur == c.Dur && p.SpanID > c.SpanID {
					continue
				}
				if best < 0 || p.Start.After(spans[best].Start) || (p.Start.Equal(spans[best].Start) && p.Dur < spans[best].Dur) {
					best = pi
				}
			}
			if best >= 0 {
				children[best] = append(children[best], ci)
			}
		}
	}
	out := make(map[string]spanStats)
	for i := range spans {
		s := &spans[i]
		st := out[s.Name]
		st.n++
		st.dur += s.Dur
		st.self += s.Dur - covered(s, spans, children[i])
		out[s.Name] = st
	}
	return out
}

// covered returns how much of parent's interval the union of the given
// child spans covers.
func covered(parent *obs.Span, spans []obs.Span, kids []int) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(kids))
	pa, pb := parent.Start, parent.EndTime()
	for _, k := range kids {
		a, b := spans[k].Start, spans[k].EndTime()
		if a.Before(pa) {
			a = pa
		}
		if b.After(pb) {
			b = pb
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a.After(cur.b):
			total += cur.b.Sub(cur.a)
			cur = v
		case v.b.After(cur.b):
			cur.b = v.b
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}
