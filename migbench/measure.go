package main

import (
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// probe is one reading of every cost source the benchmark tracks: wall
// and CPU time, the Go allocator and collector, the latency models'
// charge counts and modeled time, and the traced run's wire meters and
// program counters.
type probe struct {
	wall    time.Time
	cpu     time.Duration
	alloc   uint64
	gcs     uint32
	gcPause uint64
	counts  map[sim.Op]int
	virtual time.Duration
	kinds   map[string]kindTotals
	ctrs    map[string]int64
}

// cpuTime returns the user plus system CPU time of this process.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// observedCounters are the program counters the per-layer report reads
// from the traced run's observer.
var observedCounters = []string{"me.session.resume.hit", "me.session.resume.miss", "wire.bytes.saved"}

func (e *env) read() probe {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p := probe{
		wall:    time.Now(),
		cpu:     cpuTime(),
		alloc:   ms.TotalAlloc,
		gcs:     ms.NumGC,
		gcPause: ms.PauseTotalNs,
		counts:  make(map[sim.Op]int),
	}
	for _, l := range e.lats {
		for op, n := range l.Counts() {
			p.counts[op] += n
		}
		p.virtual += l.VirtualTotal()
	}
	if e.obs != nil {
		p.kinds = make(map[string]kindTotals)
		for _, m := range e.meters {
			for k, t := range m.totals() {
				p.kinds[k] = p.kinds[k].plus(t)
			}
		}
		p.ctrs = make(map[string]int64)
		for _, name := range observedCounters {
			p.ctrs[name] = e.obs.M().Counter(name).Value()
		}
	}
	return p
}

// phase sums the costs of the measured intervals of one run. Workloads
// bracket exactly the work they measure with begin/end, so set-up and
// the benchmark's own between-round bookkeeping stay out of it.
type phase struct {
	env     *env
	open    probe
	wall    time.Duration
	cpu     time.Duration
	alloc   uint64
	gcs     uint32
	gcPause uint64
	counts  map[sim.Op]int
	virtual time.Duration
	kinds   map[string]kindTotals
	ctrs    map[string]int64
	// spans holds the trace of the measured intervals (traced runs).
	spans []obs.Span
	// rounds holds the wall and CPU time of each measured interval.
	rounds []roundCost
	// attempts sums fleet delivery attempts and unconfirmed the journal
	// entries reading DoneConfirmed=false for a DONE that arrived
	// (wan-evacuate).
	attempts, unconfirmed int
}

// roundCost is the cost of one measured interval and the operations it
// completed (set by the runner once the round has returned).
type roundCost struct {
	wall, cpu time.Duration
	ops       int
}

func newPhase(e *env) *phase {
	return &phase{env: e, counts: make(map[sim.Op]int), kinds: make(map[string]kindTotals), ctrs: make(map[string]int64)}
}

func (ph *phase) begin() {
	ph.env.tracer().Reset()
	ph.open = ph.env.read()
}

func (ph *phase) end() {
	now := ph.env.read()
	o := ph.open
	ph.wall += now.wall.Sub(o.wall)
	ph.cpu += now.cpu - o.cpu
	ph.rounds = append(ph.rounds, roundCost{wall: now.wall.Sub(o.wall), cpu: now.cpu - o.cpu})
	ph.alloc += now.alloc - o.alloc
	ph.gcs += now.gcs - o.gcs
	ph.gcPause += now.gcPause - o.gcPause
	for op, n := range now.counts {
		ph.counts[op] += n - o.counts[op]
	}
	ph.virtual += now.virtual - o.virtual
	for k, t := range now.kinds {
		ph.kinds[k] = ph.kinds[k].plus(t.minus(o.kinds[k]))
	}
	for k, v := range now.ctrs {
		ph.ctrs[k] += v - o.ctrs[k]
	}
	if t := ph.env.tracer(); t != nil {
		ph.spans = append(ph.spans, t.Spans()...)
		t.Reset()
	}
}

// samples collects per-operation durations by kind, in milliseconds.
type samples map[string][]float64

func (s samples) add(kind string, d time.Duration) {
	s[kind] = append(s[kind], float64(d)/float64(time.Millisecond))
}

func (s samples) merge(o samples) {
	for k, v := range o {
		s[k] = append(s[k], v...)
	}
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty set).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// block is the number of consecutive operations each percentile is
// taken over: ten samples lie beyond a block's 99th percentile.
const block = 1000

// blocked returns the median, over consecutive blocks of operations, of
// each block's q-quantile (the plain q-quantile when the run has fewer
// than two blocks). A stretch of a run that the machine slowed then
// moves a few blocks, not the figure, so two runs of the same code agree
// on what operations typically see.
func blocked(xs []float64, q float64) float64 {
	if len(xs) < 2*block {
		return quantile(xs, q)
	}
	var qs []float64
	for i := 0; i+block <= len(xs); i += block {
		qs = append(qs, quantile(xs[i:i+block], q))
	}
	return median(qs)
}

// perRound returns the median over the measured rounds of f(round).
func (ph *phase) perRound(f func(roundCost) float64) float64 {
	xs := make([]float64, 0, len(ph.rounds))
	for _, r := range ph.rounds {
		if r.ops > 0 && r.wall > 0 {
			xs = append(xs, f(r))
		}
	}
	return median(xs)
}

// liveHeapKB forces a collection and returns the live heap in KiB.
func liveHeapKB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1024
}
