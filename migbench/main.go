// Command migbench is the repository's benchmark for the enclave
// migration stack. It runs one named workload for a fixed time, checks
// every output of the program against its own model, and prints every
// metric by name and unit, ending with one JSON line:
//
//	migbench --workload dc-migrate --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run;
// with --trace 1 it reports per-layer metrics from a traced run. See
// README.md for the workloads and the meaning of every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/cloud"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/transport"
)

// setupRepeats is how many times a run builds its world; setup_s is the
// median, and the last world is the one measured.
const setupRepeats = 5

// env is what a workload's world is built with: the latency models it
// charges (all at scale 0, so no modeled time is slept), and in a traced
// run the observer and the per-kind wire meters.
type env struct {
	obs    *obs.Observer
	lats   []*sim.Latency
	meters []*kindMeter
	// launches times every LaunchApp(InitNew), set-up included.
	launches []float64
}

func (e *env) noteLaunch(d time.Duration) {
	e.launches = append(e.launches, float64(d)/float64(time.Millisecond))
}

func (e *env) tracer() *obs.Tracer {
	if e.obs == nil {
		return nil
	}
	return e.obs.Tracer
}

// newDC builds a data center. A traced run builds it around a per-kind
// wire meter and attaches the shared observer.
func (e *env) newDC(name string) (*cloud.DataCenter, *kindMeter, error) {
	lat := sim.NewLatency(0)
	e.lats = append(e.lats, lat)
	if e.obs == nil {
		dc, err := cloud.NewDataCenter(name, lat)
		return dc, nil, err
	}
	m := newKindMeter(transport.NewNetwork(lat))
	e.meters = append(e.meters, m)
	dc, err := cloud.NewDataCenterWithNetwork(name, lat, m)
	if err != nil {
		return nil, nil, err
	}
	dc.SetObserver(e.obs)
	return dc, m, nil
}

// workload is one benchmark scenario.
type workload interface {
	// setup builds the world and runs its warm-up.
	setup(e *env) error
	// round runs one closed-loop round of operations. It brackets the
	// measured work with ph.begin/ph.end, records per-operation times
	// into s, and returns how many operations it attempted and how many
	// failed, a failed output check included.
	round(ph *phase, s samples) (attempted, failed int)
	// finish re-checks state that outlives the rounds; an error makes
	// the run incorrect.
	finish() error
	// live returns the number of live application enclaves.
	live() int
}

var workloads = map[string]func(seed int64) workload{
	"dc-migrate":   newDCMigrate,
	"wan-evacuate": newWANEvacuate,
	"rack-serve":   newRackServe,
}

// outcome is everything one measured run produced.
type outcome struct {
	ph                *phase
	s                 samples
	attempted, failed int
	finishErr         error
	heapKB            float64
	live              int
}

// heapOps is the number of operations after which the live heap is
// measured. The program keeps some state per operation, so a heap taken
// at the end of a timed run would grow with the speed of the run; taken
// after a fixed amount of work, it compares like with like.
const heapOps = 4096

// runRounds runs rounds of w until the measured intervals add up to d.
func runRounds(w workload, e *env, d time.Duration) outcome {
	o := outcome{ph: newPhase(e), s: samples{}}
	heapTaken := false
	for o.ph.wall < d {
		a, f := w.round(o.ph, o.s)
		o.attempted += a
		o.failed += f
		o.ph.rounds[len(o.ph.rounds)-1].ops = a - f
		if !heapTaken && o.attempted >= heapOps {
			o.live, o.heapKB, heapTaken = w.live(), liveHeapKB(), true
		}
	}
	o.finishErr = w.finish()
	if !heapTaken {
		o.live, o.heapKB = w.live(), liveHeapKB()
	}
	return o
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "dc-migrate", "workload: dc-migrate, wan-evacuate or rack-serve")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 20, "measured time of the run")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "migbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	d := time.Duration(*seconds * float64(time.Second))
	var res result
	var err error
	if *trace == 1 {
		res, err = tracedRun(mk, *seed, d)
	} else {
		res, err = plainRun(mk, *seed, d)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "migbench:", err)
		os.Exit(1)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-44s %14.6f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "migbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// plainRun is the untraced run the end-to-end metrics come from. It
// builds the world setupRepeats times from the same seed, reports the
// median set-up time, and measures the last world.
func plainRun(mk func(int64) workload, seed int64, d time.Duration) (result, error) {
	var w workload
	var e *env
	setups := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		w, e = mk(seed), &env{}
		runtime.GC()
		start := time.Now()
		if err := w.setup(e); err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	runtime.GC()
	o := runRounds(w, e, d)
	m := endToEnd(o)
	m["setup_s"] = metric{median(setups), "s"}
	return o.result(m), nil
}

func (o outcome) result(m map[string]metric) result {
	if o.finishErr != nil {
		fmt.Fprintln(os.Stderr, "migbench: final check:", o.finishErr)
	}
	return result{Correct: o.finishErr == nil, Attempted: o.attempted, Failed: o.failed, Metrics: m}
}

// ops is the number of completed operations of a run (at least 1, so
// per-operation figures stay finite on a run where everything failed).
func (o outcome) ops() float64 {
	return float64(max(o.attempted-o.failed, 1))
}

func endToEnd(o outcome) map[string]metric {
	ops := o.ops()
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return map[string]metric{
		"throughput_per_s":    {o.ph.perRound(func(r roundCost) float64 { return float64(r.ops) / r.wall.Seconds() }), "1/s"},
		"latency_ms_p50":      {blocked(o.s["op"], 0.5), "ms"},
		"cpu_ms_per_op":       {o.ph.perRound(func(r roundCost) float64 { return ms(r.cpu) / float64(r.ops) }), "ms"},
		"modeled_ms_per_op":   {ms(o.ph.virtual) / ops, "ms"},
		"alloc_kb_per_op":     {float64(o.ph.alloc) / 1024 / ops, "KB"},
		"heap_kb_per_enclave": {o.heapKB / float64(max(o.live, 1)), "KB"},
		"read_ms_p50":         {blocked(o.s["read"], 0.5), "ms"},
		"increment_ms_p50":    {blocked(o.s["increment"], 0.5), "ms"},
		"seal_unseal_ms_p50":  {blocked(o.s["seal_unseal"], 0.5), "ms"},
		"persist_ms_p50":      {blocked(o.s["persist"], 0.5), "ms"},
	}
}
