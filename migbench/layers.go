package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// logFailure reports a failed operation on standard error; the first
// few of each workload are printed, the rest only counted.
func logFailure(workload string, err error) {
	failLog.Lock()
	defer failLog.Unlock()
	failLog.n++
	if failLog.n <= 10 {
		fmt.Fprintf(os.Stderr, "migbench: %s: failed operation: %v\n", workload, err)
	}
}

var failLog struct {
	sync.Mutex
	n int
}

// tracedRun is the per-layer run. It first measures an untraced world
// for half the time, then a traced one for the other half: the traced
// half gives every per-layer figure, and the CPU difference between the
// halves is the cost of the tracing itself.
func tracedRun(mk func(int64) workload, seed int64, d time.Duration) (result, error) {
	pw, pe := mk(seed), &env{}
	if err := pw.setup(pe); err != nil {
		return result{}, fmt.Errorf("setup: %w", err)
	}
	runtime.GC()
	plain := runRounds(pw, pe, d/2)
	pw, pe = nil, nil // the untraced world is garbage from here on

	e := &env{obs: &obs.Observer{Tracer: obs.NewTracerWithCapacity(0), Metrics: obs.NewMetrics(), Events: obs.NewEventLog()}}
	w := mk(seed)
	if err := w.setup(e); err != nil {
		return result{}, fmt.Errorf("traced setup: %w", err)
	}
	runtime.GC()
	o := runRounds(w, e, d/2)
	m := perLayer(o, e)
	m["obs.trace_overhead_cpu_ms_per_op"] = metric{cpuPerOp(o) - cpuPerOp(plain), "ms"}
	// The tail is reported here, from the untraced half, and not gated:
	// on a shared two-core machine a few scheduling stalls per thousand
	// operations decide it, and it spread by more than any bound between
	// runs of the same code (see README).
	m["latency_ms_p99"] = metric{blocked(plain.s["op"], 0.99), "ms"}
	res := o.result(m)
	res.Correct = res.Correct && plain.finishErr == nil
	res.Attempted += plain.attempted
	res.Failed += plain.failed
	return res, nil
}

func cpuPerOp(o outcome) float64 {
	return float64(o.ph.cpu) / float64(time.Millisecond) / o.ops()
}

// simOps maps the cost-model operations to their per-layer names.
var simOps = []struct {
	name string
	op   sim.Op
}{
	{"sgx.ecall_per_op", sim.OpECall},
	{"sgx.egetkey_per_op", sim.OpEGetKey},
	{"sgx.ereport_per_op", sim.OpEReport},
	{"pse.create_per_op", sim.OpCounterCreate},
	{"pse.increment_per_op", sim.OpCounterIncrement},
	{"pse.read_per_op", sim.OpCounterRead},
	{"pse.destroy_per_op", sim.OpCounterDestroy},
	{"attest.quote_per_op", sim.OpQuote},
	{"attest.ias_verify_per_op", sim.OpIASVerify},
	{"transport.rtt_per_op", sim.OpNetworkRTT},
	{"transport.wan_hop_per_op", sim.OpWANHop},
	{"pserepl.replica_apply_per_op", sim.OpReplicaApply},
}

// wireKinds are the message kinds whose traffic is reported.
var wireKinds = []string{
	"ctr-op", "ctr-escrow",
	"migrate-offer", "migrate-data", "migrate-done",
	"migrate-batch-offer", "migrate-batch-chunk", "migrate-batch-done",
}

// spanLayers maps per-layer self-time metrics to the spans they sum.
var spanLayers = []struct {
	name  string
	spans []string
}{
	{"core.lib_freeze_self_ms", []string{"lib.freeze"}},
	{"core.lib_resume_self_ms", []string{"lib.resume"}},
	{"core.me_source_self_ms", []string{"me.migrate-out", "me.transfer", "me.offer", "me.data", "me.done", "me.handle-migrate-done"}},
	{"core.me_offer_handler_self_ms", []string{"me.handle-migrate-offer"}},
	{"core.me_data_handler_self_ms", []string{"me.handle-migrate-data"}},
	{"core.batch_self_ms", []string{"me.batch", "me.batch-offer", "me.batch-chunk", "me.handle-migrate-batch-offer", "me.handle-migrate-batch-done"}},
	{"core.batch_chunk_handler_self_ms", []string{"me.handle-migrate-batch-chunk"}},
	{"cloud.launch_migrated_self_ms", []string{"bench.launch-migrated"}},
	{"transport.wan_hop_self_ms", []string{"wan.hop"}},
	{"fleet.migrate_self_ms", []string{"fleet.migrate"}},
	{"pserepl.quorum_increment_self_ms", []string{"quorum.increment"}},
	{"pserepl.quorum_create_self_ms", []string{"quorum.create"}},
	{"pserepl.quorum_destroy_read_self_ms", []string{"quorum.destroy-read"}},
	{"pserepl.quorum_escrow_put_self_ms", []string{"quorum.escrow-put"}},
	// What the benchmark's own spans around the migration keep: time
	// between and around the calls that no program span covers.
	{"trace.unattributed_ms", []string{"bench.migrate", "bench.start-migration", "bench.terminate"}},
}

// perLayer turns a traced run into the per-layer metrics, every one per
// completed operation unless its name says otherwise.
func perLayer(o outcome, e *env) map[string]metric {
	ph, ops := o.ph, o.ops()
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	m := make(map[string]metric)
	for _, so := range simOps {
		m[so.name] = metric{float64(ph.counts[so.op]) / ops, "count"}
	}
	m["transport.wan_kb_per_op"] = metric{float64(ph.counts[sim.OpWANByte]) / 1024 / ops, "KB"}
	for _, k := range wireKinds {
		t := ph.kinds[k]
		m["transport."+k+".msgs_per_op"] = metric{float64(t.msgs) / ops, "count"}
		m["transport."+k+".kb_per_op"] = metric{float64(t.bytes) / 1024 / ops, "KB"}
		m["transport."+k+".busy_ms_per_op"] = metric{ms(t.busy) / ops, "ms"}
	}
	st := selfTimes(ph.spans)
	for _, l := range spanLayers {
		var self time.Duration
		for _, n := range l.spans {
			self += st[n].self
		}
		m[l.name] = metric{ms(self) / ops, "ms"}
	}
	m["trace.latency_ms"] = metric{ms(st["bench.migrate"].dur) / ops, "ms"}
	m["cloud.launch_new_ms"] = metric{mean(e.launches), "ms"}
	if b := st["me.batch"].n; b > 0 {
		m["core.members_per_batch"] = metric{float64(st["fleet.migrate"].n) / float64(b), "count"}
	} else {
		m["core.members_per_batch"] = metric{0, "count"}
	}
	hit, miss := ph.ctrs["me.session.resume.hit"], ph.ctrs["me.session.resume.miss"]
	ratio := 0.0
	if hit+miss > 0 {
		ratio = float64(hit) / float64(hit+miss)
	}
	m["core.session_resume_hit_ratio"] = metric{ratio, "ratio"}
	m["transport.compress_saved_kb_per_op"] = metric{float64(ph.ctrs["wire.bytes.saved"]) / 1024 / ops, "KB"}
	m["fleet.attempts_per_migration"] = metric{float64(ph.attempts) / ops, "count"}
	m["fleet.unconfirmed_done_per_kop"] = metric{float64(ph.unconfirmed) * 1000 / ops, "count"}
	m["runtime.gc_cycles_per_kop"] = metric{float64(ph.gcs) * 1000 / ops, "count"}
	m["runtime.gc_pause_ms_per_kop"] = metric{float64(ph.gcPause) / 1e6 * 1000 / ops, "ms"}
	return m
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
