package main

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sgx"
)

// The dc-migrate workload is the paper's §VII-B lifecycle: one client
// launches an enclave, creates and increments counters (Fig. 3), seals a
// payload (Fig. 4), migrates the enclave to the other machine of the
// data center and checks everything survived. Every migration runs its
// own attested exchange with a fresh quote and IAS verification; no
// fleet, batching, compression or quorum is involved.
const (
	// dcResidents is the number of idle tenants each machine hosts
	// throughout the run, so the heap per enclave is a figure of a
	// populated machine, not of the empty one the client migrates on.
	dcResidents = 64
	// dcRound is the number of migrations per measured round.
	dcRound = 64
	// dcWarmup is the number of unmeasured migrations set-up runs.
	dcWarmup = 64
)

type dcMigrate struct {
	rng      *rand.Rand
	payloads [][]byte
	e        *env
	machines [2]*cloud.Machine
	img      *sgx.Image
	resident []*tenant
	iter     int
}

func newDCMigrate(seed int64) workload {
	rng := rand.New(rand.NewSource(seed))
	return &dcMigrate{rng: rng, payloads: makePayloads(rng), img: appImage("dc-migrate/client")}
}

func (w *dcMigrate) setup(e *env) error {
	w.e = e
	dc, _, err := e.newDC("dc")
	if err != nil {
		return err
	}
	for i, id := range []string{"m0", "m1"} {
		if w.machines[i], err = dc.AddMachine(id); err != nil {
			return err
		}
	}
	for i := 0; i < 2*dcResidents; i++ {
		t, err := launchTenant(e, w.machines[i%2], appImage(fmt.Sprintf("dc-migrate/resident-%03d", i)), 1+w.rng.Intn(3), w.rng, w.payloads, nil)
		if err != nil {
			return fmt.Errorf("resident %d: %w", i, err)
		}
		w.resident = append(w.resident, t)
	}
	s := samples{}
	for i := 0; i < dcWarmup; i++ {
		if err := w.migrateOnce(s); err != nil {
			return fmt.Errorf("warm-up migration %d: %w", i, err)
		}
	}
	return nil
}

func (w *dcMigrate) round(ph *phase, s samples) (int, int) {
	failed := 0
	ph.begin()
	for i := 0; i < dcRound; i++ {
		if err := w.migrateOnce(s); err != nil {
			failed++
			logFailure("dc-migrate", err)
		}
	}
	ph.end()
	return dcRound, failed
}

// migrateOnce runs one client iteration: launch, counters, seal,
// migrate, verify on the destination, clean up. The migration's downtime
// (freeze to restored) is its "op" sample.
func (w *dcMigrate) migrateOnce(s samples) error {
	e := w.e
	src, dst := w.machines[w.iter%2], w.machines[(w.iter+1)%2]
	w.iter++
	t := &tenant{img: w.img, payload: w.payloads[w.rng.Intn(len(w.payloads))]}
	incs := make([]int, 1+w.rng.Intn(3))
	for i := range incs {
		incs[i] = 1 + w.rng.Intn(3)
	}

	// Benchmark spans; nil, and free, in an untraced run.
	sp, _ := e.obs.StartSpan("bench.launch-new", obs.TraceContext{})
	start := time.Now()
	app, err := src.LaunchApp(t.img, core.NewMemoryStorage(), core.InitNew)
	e.noteLaunch(time.Since(start))
	sp.End()
	if err != nil {
		return fmt.Errorf("launch: %w", err)
	}
	t.app = app
	defer func() { t.app.Terminate() }()

	creates := make([]time.Duration, len(incs))
	for i, n := range incs {
		start := time.Now()
		err := createCounter(t, i)
		creates[i] = time.Since(start)
		if err != nil {
			return err
		}
		for j := 0; j < n; j++ {
			start := time.Now()
			err := incrementCounter(t, i)
			s.add("increment", time.Since(start))
			if err != nil {
				return err
			}
		}
	}
	start = time.Now()
	t.blob, err = app.Library.SealMigratable(sealAAD, t.payload)
	sealed := time.Since(start)
	if err != nil {
		return fmt.Errorf("seal: %w", err)
	}

	root, rootTC := e.obs.StartSpan("bench.migrate", obs.TraceContext{})
	sp, tc := e.obs.StartSpan("bench.start-migration", rootTC)
	start = time.Now()
	err = app.Library.StartMigrationCtx(tc, dst.MEAddress())
	down := time.Since(start)
	sp.End()
	if err != nil {
		root.End()
		return fmt.Errorf("start migration: %w", err)
	}
	// Outside the timed window: the frozen source must refuse counters.
	if err := checkFrozen(app.Library); err != nil {
		root.End()
		return err
	}
	sp, _ = e.obs.StartSpan("bench.terminate", rootTC)
	start = time.Now()
	app.Terminate()
	sp.End()
	sp, _ = e.obs.StartSpan("bench.launch-migrated", rootTC)
	restored, err := dst.LaunchApp(t.img, core.NewMemoryStorage(), core.InitMigrated)
	down += time.Since(start)
	sp.End()
	root.End()
	if err != nil {
		return fmt.Errorf("restore: %w", err)
	}
	t.app = restored
	s.add("op", down)

	if err := readAll(t, s); err != nil {
		return fmt.Errorf("after migration: %w", err)
	}
	start = time.Now()
	pt, _, err := restored.Library.UnsealMigratable(t.blob)
	s.add("seal_unseal", sealed+time.Since(start))
	if err != nil {
		return fmt.Errorf("unseal after migration: %w", err)
	}
	if err := checkPayload(pt, t.payload); err != nil {
		return err
	}
	for i := range t.ctrs {
		start := time.Now()
		err := restored.Library.DestroyCounter(i)
		s.add("persist", creates[i]+time.Since(start))
		if err != nil {
			return fmt.Errorf("destroy counter %d: %w", i, err)
		}
	}
	return nil
}

func (w *dcMigrate) finish() error {
	var errs []error
	for _, t := range w.resident {
		if err := verifyTenant(t); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", t.img.Name, err))
		}
	}
	return errors.Join(errs...)
}

func (w *dcMigrate) live() int {
	return w.machines[0].AppCount() + w.machines[1].AppCount()
}
