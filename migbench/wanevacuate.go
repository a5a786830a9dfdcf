package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"time"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/federation"
	"repro/internal/fleet"
	"repro/internal/transport"
)

// The wan-evacuate workload moves every enclave of a machine to three
// machines of a second data center over one modeled WAN link, with one
// fleet evacuation plan, and then moves them all back with the reverse
// plan, round after round. The batched pipeline does nearly all the
// work: session resume, chunked AEAD streams, DEFLATE under the AEAD,
// the WAN link and fleet scheduling. Quorum does none, and per-migration
// remote attestation almost none.
const (
	// wanEnclaves is the number of enclaves evacuated in every round.
	wanEnclaves = 2048
	wanBatch    = 64
	wanWorkers  = 2
	// wanLinkCap is the per-link cap on concurrent batch deliveries.
	wanLinkCap = 2
	wanRTT     = 50 * time.Millisecond
	// wanBandwidth is 1 Gbit/s in bytes per second.
	wanBandwidth = 125_000_000
	// wanPersistEvery: after each round, every this-many-th enclave
	// also creates and destroys a counter on its new machine.
	wanPersistEvery = 8
)

type wanEvacuate struct {
	rng      *rand.Rand
	payloads [][]byte
	e        *env
	link     *transport.WANLink
	// sides[0] is the west machine, sides[1] the three east machines.
	sides   [2][]*cloud.Machine
	orch    [2]*fleet.Orchestrator
	tenants map[string]*tenant
	// at is the side that holds the enclaves before the next round.
	at     int
	stray  []error
	rounds int
}

func newWANEvacuate(seed int64) workload {
	rng := rand.New(rand.NewSource(seed))
	return &wanEvacuate{rng: rng, payloads: makePayloads(rng), tenants: make(map[string]*tenant)}
}

func (w *wanEvacuate) setup(e *env) error {
	w.e = e
	fed := federation.New("fed")
	var dcs [2]*cloud.DataCenter
	var meters [2]*kindMeter
	for side, spec := range []struct {
		name string
		ids  []string
	}{{"west", []string{"a1"}}, {"east", []string{"b1", "b2", "b3"}}} {
		dc, meter, err := e.newDC(spec.name)
		if err != nil {
			return err
		}
		dcs[side], meters[side] = dc, meter
		for _, id := range spec.ids {
			m, err := dc.AddMachine(id)
			if err != nil {
				return err
			}
			w.sides[side] = append(w.sides[side], m)
		}
		if err := fed.Admit(dc); err != nil {
			return err
		}
	}
	link, err := fed.Connect("west", "east", transport.WANConfig{RTT: wanRTT, Bandwidth: wanBandwidth})
	if err != nil {
		return err
	}
	w.link = link
	e.lats = append(e.lats, link.Latency())
	for side, dc := range dcs {
		w.orch[side] = fleet.New(dc, fleet.Config{
			Workers:   wanWorkers,
			BatchSize: wanBatch,
			LinkCap:   map[string]int{link.Name(): wanLinkCap},
			Obs:       e.obs,
		})
	}
	if e.obs != nil {
		fed.SetObserver(e.obs)
		for side, ms := range w.sides {
			for _, m := range ms {
				meters[1-side].markForeign(m.MEAddress())
			}
		}
	}
	for i := 0; i < wanEnclaves; i++ {
		name := fmt.Sprintf("wan/%05d", i)
		t, err := launchTenant(e, w.sides[0][0], appImage(name), w.rng.Intn(4), w.rng, w.payloads, nil)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		w.tenants[name] = t
	}
	return nil
}

// plan is the evacuation of every machine of side from to the machines
// of the other side, over the WAN link; it also returns the target set.
func (w *wanEvacuate) plan(from int) (fleet.Plan, map[string]bool) {
	plan := fleet.Plan{Intent: fleet.IntentEvacuate}
	for _, m := range w.sides[from] {
		plan.Sources = append(plan.Sources, m.ID())
	}
	targets := make(map[string]bool)
	for _, m := range w.sides[1-from] {
		plan.RemoteTargets = append(plan.RemoteTargets, fleet.RemoteTarget{Machine: m, Link: w.link.Name()})
		targets[m.ID()] = true
	}
	return plan, targets
}

func (w *wanEvacuate) round(ph *phase, s samples) (int, int) {
	from, to := w.at, 1-w.at
	w.at = to
	w.rounds++
	planned := make(map[string]bool, len(w.tenants))
	sources := make(map[string]*cloud.App, len(w.tenants))
	for name, t := range w.tenants {
		planned[name] = true
		sources[name] = t.app
	}
	plan, targets := w.plan(from)

	ph.begin()
	rep, err := w.orch[from].Execute(context.Background(), plan)
	ph.end()
	if err != nil {
		logFailure("wan-evacuate", fmt.Errorf("plan: %w", err))
		return len(planned), len(planned)
	}
	entries := rep.Journal.Entries()
	for _, en := range entries {
		s.add("op", en.Latency)
		ph.attempts += en.Attempts
	}
	confirmed := make(map[string]bool, len(sources))
	for name, src := range sources {
		confirmed[name] = doneConfirmed(src)
	}
	late := lateDones(entries, confirmed)
	ph.unconfirmed += late
	if late > 0 {
		fmt.Fprintf(os.Stderr, "migbench: wan-evacuate: round %d: %d journal entries read DoneConfirmed=false for a DONE that arrived\n", w.rounds, late)
	}
	bad, err := checkEvacuation(entries, planned, confirmed, targets, liveByName(w.machines()...))
	if err != nil {
		w.stray = append(w.stray, fmt.Errorf("round %d: %w", w.rounds, err))
	}
	for _, m := range w.sides[to] {
		for _, a := range m.Apps() {
			if t, ok := w.tenants[a.Image().Name]; ok {
				t.app = a
			}
		}
	}
	names := make([]string, 0, len(planned))
	for name := range planned {
		names = append(names, name)
	}
	sort.Strings(names)
	failed := 0
	for i, name := range names {
		var err error
		if reason := bad[name]; reason != "" {
			err = errors.New(reason)
		} else {
			err = w.afterLanding(w.tenants[name], sources[name].Library, i%wanPersistEvery == 0, s)
		}
		if err != nil {
			failed++
			logFailure("wan-evacuate", fmt.Errorf("%s: %w", name, err))
		}
	}
	return len(planned), failed
}

// afterLanding checks a migrated enclave on its new machine: the source
// copy is frozen, the counters and the payload match the model. It then
// uses the enclave there: increments a counter, re-seals the payload
// and, when persist is set, creates and destroys a counter.
func (w *wanEvacuate) afterLanding(t *tenant, source *core.Library, persist bool, s samples) error {
	if err := checkFrozen(source); err != nil {
		return err
	}
	if err := readAll(t, s); err != nil {
		return err
	}
	if len(t.ctrs) > 0 {
		start := time.Now()
		err := incrementCounter(t, 0)
		s.add("increment", time.Since(start))
		if err != nil {
			return err
		}
	}
	if err := resealPayload(t, s); err != nil {
		return err
	}
	if persist {
		return createDestroy(t, s)
	}
	return nil
}

// doneConfirmed asks the source machine's Migration Enclave whether the
// destination confirmed the restore of the app's migration (Fig. 2's
// DONE). The benchmark asks after the plan has returned, so the answer
// does not depend on when the fleet looked.
func doneConfirmed(src *cloud.App) bool {
	token := src.Library.MigrationToken()
	if token == nil {
		return false
	}
	_, _, done, err := src.Machine().ME.OutgoingStatus(token)
	return err == nil && done
}

// lateDones counts journal entries whose DoneConfirmed reads false
// although the source holds the confirmation.
func lateDones(entries []fleet.Entry, confirmed map[string]bool) int {
	n := 0
	for _, e := range entries {
		if !e.DoneConfirmed && confirmed[e.App] {
			n++
		}
	}
	return n
}

func (w *wanEvacuate) finish() error { return errors.Join(w.stray...) }

func (w *wanEvacuate) machines() []*cloud.Machine {
	return append(append([]*cloud.Machine(nil), w.sides[0]...), w.sides[1]...)
}

func (w *wanEvacuate) live() int {
	n := 0
	for _, m := range w.machines() {
		n += m.AppCount()
	}
	return n
}
