package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/sgx"
)

const (
	// payloadBytes is the size of every sealed payload.
	payloadBytes = 1024
	// payloadPool is how many distinct payloads a run draws from.
	payloadPool = 16
)

// sealAAD is the additional authenticated text of every sealed payload.
var sealAAD = []byte("migbench")

// makePayloads draws the payload pool of a run from its seeded source.
func makePayloads(rng *rand.Rand) [][]byte {
	out := make([][]byte, payloadPool)
	for i := range out {
		out[i] = make([]byte, payloadBytes)
		rng.Read(out[i])
	}
	return out
}

// appImage builds a benchmark application enclave image.
func appImage(name string) *sgx.Image {
	return &sgx.Image{Name: name, Version: 1, Code: []byte("migbench:" + name), SignerPublicKey: signerKey}
}

// signerKey is the fixed signing identity of every benchmark image.
var signerKey = func() []byte {
	k := make([]byte, 32)
	copy(k, "migbench application signer key")
	return k
}()

// tenant is one application enclave together with the benchmark's own
// model of its state. The model is written only from what the benchmark
// itself asked for (creates, increments, seals), never from what the
// program returned, so every output is compared against an independent
// expectation.
type tenant struct {
	img *sgx.Image
	app *cloud.App
	// ctrs[i] is the expected value of counter slot i; slots
	// 0..len(ctrs)-1 are active.
	ctrs []uint32
	// seen[i] is the highest value any call returned for slot i.
	seen    []uint32
	payload []byte
	blob    []byte
	// pending is a counter created by the first half of a create+destroy
	// pair that spans two rounds (rack-serve), nil between pairs.
	pending *pendingCounter
}

// pendingCounter is a created counter awaiting its destroy.
type pendingCounter struct {
	id      int
	created time.Duration
}

// launchTenant launches an enclave with k counters, each incremented 0
// to 2 times, and one sealed payload. settle, when not nil, runs after
// every call that updates a counter.
func launchTenant(e *env, m *cloud.Machine, img *sgx.Image, k int, rng *rand.Rand, payloads [][]byte, settle func()) (*tenant, error) {
	t := &tenant{img: img, payload: payloads[rng.Intn(len(payloads))]}
	incs := make([]int, k)
	for i := range incs {
		incs[i] = rng.Intn(3)
	}
	start := time.Now()
	app, err := m.LaunchApp(img, core.NewMemoryStorage(), core.InitNew)
	if err != nil {
		return nil, fmt.Errorf("launch: %w", err)
	}
	e.noteLaunch(time.Since(start))
	t.app = app
	if settle == nil {
		settle = func() {}
	}
	settle()
	for i, n := range incs {
		if err := createCounter(t, i); err != nil {
			return nil, err
		}
		settle()
		for j := 0; j < n; j++ {
			if err := incrementCounter(t, i); err != nil {
				return nil, err
			}
			settle()
		}
	}
	if t.blob, err = app.Library.SealMigratable(sealAAD, t.payload); err != nil {
		return nil, fmt.Errorf("seal: %w", err)
	}
	return t, nil
}

// createCounter creates the tenant's next counter, expecting slot id and
// initial value 0, and adds it to the model.
func createCounter(t *tenant, id int) error {
	got, v, err := t.app.Library.CreateCounter()
	if err != nil {
		return fmt.Errorf("create counter: %w", err)
	}
	if got != id {
		return fmt.Errorf("create counter: got slot %d, want %d", got, id)
	}
	if err := checkRead(v, 0); err != nil {
		return fmt.Errorf("new counter %d: %w", id, err)
	}
	t.ctrs = append(t.ctrs, 0)
	t.seen = append(t.seen, 0)
	return nil
}

// incrementCounter increments a counter and checks it against the model.
func incrementCounter(t *tenant, id int) error {
	v, err := t.app.Library.IncrementCounter(id)
	if err != nil {
		return fmt.Errorf("increment counter %d: %w", id, err)
	}
	if err := checkIncrement(v, t.ctrs[id]); err != nil {
		return fmt.Errorf("counter %d: %w", id, err)
	}
	t.ctrs[id]++
	t.seen[id] = v
	return nil
}

// readCounter reads a counter, timed into s, and checks it against the
// model and against every value returned for it before.
func readCounter(t *tenant, id int, s samples) error {
	start := time.Now()
	got, err := t.app.Library.ReadCounter(id)
	s.add("read", time.Since(start))
	if err != nil {
		return fmt.Errorf("read counter %d: %w", id, err)
	}
	if err := checkMonotonic(got, t.seen[id]); err != nil {
		return fmt.Errorf("counter %d: %w", id, err)
	}
	if err := checkRead(got, t.ctrs[id]); err != nil {
		return fmt.Errorf("counter %d: %w", id, err)
	}
	t.seen[id] = got
	return nil
}

// readAll reads every counter of the tenant.
func readAll(t *tenant, s samples) error {
	for i := range t.ctrs {
		if err := readCounter(t, i, s); err != nil {
			return err
		}
	}
	return nil
}

// resealPayload unseals the tenant's blob, checks the payload, and seals
// it again; the pair is timed as one seal_unseal sample.
func resealPayload(t *tenant, s samples) error {
	start := time.Now()
	pt, _, err := t.app.Library.UnsealMigratable(t.blob)
	if err != nil {
		return fmt.Errorf("unseal: %w", err)
	}
	blob, err := t.app.Library.SealMigratable(sealAAD, t.payload)
	s.add("seal_unseal", time.Since(start))
	if err != nil {
		return fmt.Errorf("seal: %w", err)
	}
	if err := checkPayload(pt, t.payload); err != nil {
		return err
	}
	t.blob = blob
	return nil
}

// createDestroy creates a counter and destroys it again; the pair, which
// persists the library state twice, is timed as one persist sample.
func createDestroy(t *tenant, s samples) error {
	id := len(t.ctrs)
	start := time.Now()
	if err := createCounter(t, id); err != nil {
		return err
	}
	err := t.app.Library.DestroyCounter(id)
	s.add("persist", time.Since(start))
	if err != nil {
		return fmt.Errorf("destroy counter %d: %w", id, err)
	}
	t.ctrs, t.seen = t.ctrs[:id], t.seen[:id]
	return nil
}

// persistStep runs one half of a create+destroy pair: it creates a
// counter, or destroys the one created before and records the pair's
// time as one persist sample. Each half persists the library state once.
func persistStep(t *tenant, s samples) error {
	if t.pending == nil {
		id := len(t.ctrs)
		start := time.Now()
		got, v, err := t.app.Library.CreateCounter()
		created := time.Since(start)
		if err != nil {
			return fmt.Errorf("create counter: %w", err)
		}
		t.pending = &pendingCounter{id: got, created: created}
		if got != id {
			return fmt.Errorf("create counter: got slot %d, want %d", got, id)
		}
		return checkRead(v, 0)
	}
	p := t.pending
	start := time.Now()
	err := t.app.Library.DestroyCounter(p.id)
	s.add("persist", p.created+time.Since(start))
	if err != nil {
		return fmt.Errorf("destroy counter %d: %w", p.id, err)
	}
	t.pending = nil
	return nil
}

// verifyTenant checks every counter and the payload of a tenant.
func verifyTenant(t *tenant) error {
	if err := readAll(t, samples{}); err != nil {
		return err
	}
	pt, _, err := t.app.Library.UnsealMigratable(t.blob)
	if err != nil {
		return fmt.Errorf("unseal: %w", err)
	}
	return checkPayload(pt, t.payload)
}
