package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/cloud"
	"repro/internal/pserepl"
)

// The rack-serve workload serves client operations on a three-machine
// f=1 rack: replicated counters plus the state escrow. Two clients each
// own half the applications and issue a seeded mix of reads,
// increments, seal+unseal pairs and counter create+destroy pairs. No
// enclave migrates, so a change to the migration path should read no
// change here; a change that speeds reads at the cost of writes shows in
// the per-kind latencies.
const (
	rackMachines = 3
	rackF        = 1
	rackApps     = 64
	rackClients  = 2
	// rackRound is the number of operations each client issues per
	// measured round.
	rackRound = 128
	// rackWarmup is the number of unmeasured rounds set-up runs.
	rackWarmup = 2
)

// The operation mix, in percent of all client operations.
const (
	mixRead      = 70
	mixIncrement = 15
	mixSeal      = 10 // the remaining 5% are creates and destroys
)

type rackServe struct {
	seed     int64
	payloads [][]byte
	machines []*cloud.Machine
	group    *pserepl.Group
	clients  []*rackClient
}

// rackClient is one closed-loop client with its own applications and its
// own seeded operation stream.
type rackClient struct {
	rng     *rand.Rand
	tenants []*tenant
}

func newRackServe(seed int64) workload {
	return &rackServe{seed: seed, payloads: makePayloads(rand.New(rand.NewSource(seed)))}
}

func (w *rackServe) setup(e *env) error {
	dc, _, err := e.newDC("rack-dc")
	if err != nil {
		return err
	}
	ids := make([]string, 0, rackMachines)
	for i := 0; i < rackMachines; i++ {
		m, err := dc.AddMachine(fmt.Sprintf("rack-%d", i))
		if err != nil {
			return err
		}
		w.machines = append(w.machines, m)
		ids = append(ids, m.ID())
	}
	if w.group, err = dc.NewReplicaGroup("rack", rackF, ids...); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(w.seed + 1))
	for c := 0; c < rackClients; c++ {
		w.clients = append(w.clients, &rackClient{rng: rand.New(rand.NewSource(w.seed + 100 + int64(c)))})
	}
	for i := 0; i < rackApps; i++ {
		img := appImage(fmt.Sprintf("rack-serve/app-%02d", i))
		t, err := launchTenant(e, w.machines[i%rackMachines], img, 1+rng.Intn(3), rng, w.payloads, w.group.Quiesce)
		if err != nil {
			return fmt.Errorf("%s: %w", img.Name, err)
		}
		c := w.clients[i%rackClients]
		c.tenants = append(c.tenants, t)
	}
	for i := 0; i < rackWarmup; i++ {
		if _, failed := w.serve(); failed > 0 {
			return fmt.Errorf("warm-up round %d: %d operations failed", i, failed)
		}
	}
	return nil
}

func (w *rackServe) round(ph *phase, s samples) (int, int) {
	ph.begin()
	cs, failed := w.serve()
	ph.end()
	s.merge(cs)
	return rackClients * rackRound, failed
}

// serve runs one round: every client issues rackRound operations, the
// clients concurrently, and the round ends when the rack has finished
// the replication work the operations left in the background. It
// returns the clients' samples and the number of failed operations.
func (w *rackServe) serve() (samples, int) {
	var wg sync.WaitGroup
	out := make([]samples, len(w.clients))
	fails := make([]int, len(w.clients))
	for i, c := range w.clients {
		out[i] = samples{}
		ops := c.plan()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, op := range ops {
				if err := op.run(out[i]); err != nil {
					fails[i]++
					logFailure("rack-serve", err)
				}
			}
		}()
	}
	wg.Wait()
	w.group.Quiesce()
	all, failed := samples{}, 0
	for i := range out {
		all.merge(out[i])
		failed += fails[i]
	}
	return all, failed
}

// Client operation kinds.
const (
	opRead = iota
	opIncrement
	opSeal
	opPersist
)

// rackOp is one planned client operation.
type rackOp struct {
	kind int
	t    *tenant
	id   int // counter slot (reads and increments)
}

// plan draws one round of operations from the client's seeded stream.
// A quorum operation on a counter whose previous update is still
// replicating in the background fails now and then (see README), so
// that operation is left out: rounds end with the rack settled, and
// within a round a counter is either incremented, at most once, or only
// read, and each application persists its state at most once, which is
// one update of its escrow binding counter.
func (c *rackClient) plan() []rackOp {
	type slot struct {
		t  *tenant
		id int
	}
	var slots []slot
	for _, t := range c.tenants {
		for id := range t.ctrs {
			slots = append(slots, slot{t, id})
		}
	}
	c.rng.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
	ops := make([]rackOp, rackRound)
	kinds := make([]int, rackRound)
	writes := 0
	for i := range kinds {
		switch r := c.rng.Intn(100); {
		case r < mixRead:
			kinds[i] = opRead
		case r < mixRead+mixIncrement:
			kinds[i] = opIncrement
			writes++
		case r < mixRead+mixIncrement+mixSeal:
			kinds[i] = opSeal
		default:
			kinds[i] = opPersist
		}
	}
	writes = min(writes, len(slots)/2)
	written, reads := slots[:writes], slots[writes:]
	persisters := append([]*tenant(nil), c.tenants...)
	c.rng.Shuffle(len(persisters), func(i, j int) { persisters[i], persisters[j] = persisters[j], persisters[i] })
	for i, k := range kinds {
		if k == opIncrement && len(written) == 0 {
			k = opRead
		}
		switch k {
		case opRead:
			sl := reads[c.rng.Intn(len(reads))]
			ops[i] = rackOp{kind: k, t: sl.t, id: sl.id}
		case opIncrement:
			ops[i] = rackOp{kind: k, t: written[0].t, id: written[0].id}
			written = written[1:]
		case opPersist:
			if len(persisters) == 0 {
				ops[i] = rackOp{kind: opSeal, t: c.tenants[c.rng.Intn(len(c.tenants))]}
				continue
			}
			ops[i] = rackOp{kind: k, t: persisters[0]}
			persisters = persisters[1:]
		default:
			ops[i] = rackOp{kind: k, t: c.tenants[c.rng.Intn(len(c.tenants))]}
		}
	}
	return ops
}

// run issues the operation and records its latency as an "op"; the
// calls it makes record their own per-kind samples.
func (op rackOp) run(s samples) error {
	start := time.Now()
	var err error
	switch op.kind {
	case opRead:
		err = readCounter(op.t, op.id, s)
	case opIncrement:
		err = incrementCounter(op.t, op.id)
		s.add("increment", time.Since(start))
	case opSeal:
		err = resealPayload(op.t, s)
	default:
		err = persistStep(op.t, s)
	}
	s.add("op", time.Since(start))
	if err != nil {
		return fmt.Errorf("%s: %w", op.t.img.Name, err)
	}
	return nil
}

func (w *rackServe) finish() error {
	var errs []error
	for _, c := range w.clients {
		for _, t := range c.tenants {
			if err := verifyTenant(t); err != nil {
				errs = append(errs, fmt.Errorf("%s: %w", t.img.Name, err))
			}
		}
	}
	return errors.Join(errs...)
}

func (w *rackServe) live() int {
	n := 0
	for _, m := range w.machines {
		n += m.AppCount()
	}
	return n
}
