package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"

	"repro/internal/cloud"
)

// specMetrics reads the metric names BENCHMARK.json declares.
func specMetrics(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("read BENCHMARK.json: %v", err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatalf("parse BENCHMARK.json: %v", err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

func sameNames(t *testing.T, what string, got map[string]metric, want []string) {
	t.Helper()
	names := make([]string, 0, len(got))
	for n := range got {
		names = append(names, n)
	}
	sort.Strings(names)
	want = append([]string(nil), want...)
	sort.Strings(want)
	if len(names) != len(want) {
		t.Fatalf("%s: reports %v, BENCHMARK.json declares %v", what, names, want)
	}
	for i := range names {
		if names[i] != want[i] {
			t.Fatalf("%s: reports %v, BENCHMARK.json declares %v", what, names, want)
		}
	}
}

// TestWorkloadsRunClean runs every workload briefly, untraced and
// traced: no operation fails, the final checks pass, and each mode
// reports exactly the metrics BENCHMARK.json declares.
func TestWorkloadsRunClean(t *testing.T) {
	endToEnd, perLayer := specMetrics(t)
	for name, mk := range workloads {
		t.Run(name, func(t *testing.T) {
			res, err := plainRun(mk, 7, 200*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("untraced: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			sameNames(t, "untraced", res.Metrics, endToEnd)
			for n, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s reads %v", n, m.Value)
				}
			}
			res, err = tracedRun(mk, 7, 400*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("traced: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			sameNames(t, "traced", res.Metrics, perLayer)
		})
	}
}

// TestCheckKindsFailOnWrongExpectations hands each kind of output check
// a real program output with a wrong expected value and requires it to
// fail, and with the modeled value and requires it to pass.
func TestCheckKindsFailOnWrongExpectations(t *testing.T) {
	w := newDCMigrate(3).(*dcMigrate)
	if err := w.setup(&env{}); err != nil {
		t.Fatal(err)
	}
	tn := w.resident[0]
	lib := tn.app.Library

	got, err := lib.ReadCounter(0)
	if err != nil {
		t.Fatal(err)
	}
	if checkRead(got, tn.ctrs[0]) != nil || checkRead(got, tn.ctrs[0]+1) == nil {
		t.Error("checkRead does not tell the modeled value from a wrong one")
	}
	if checkMonotonic(got, got) != nil || checkMonotonic(got, got+1) == nil {
		t.Error("checkMonotonic does not catch a value below one already returned")
	}
	inc, err := lib.IncrementCounter(0)
	if err != nil {
		t.Fatal(err)
	}
	if checkIncrement(inc, tn.ctrs[0]) != nil || checkIncrement(inc, tn.ctrs[0]+1) == nil {
		t.Error("checkIncrement does not tell the modeled value from a wrong one")
	}
	tn.ctrs[0]++
	pt, _, err := lib.UnsealMigratable(tn.blob)
	if err != nil {
		t.Fatal(err)
	}
	wrong := append([]byte(nil), tn.payload...)
	wrong[0] ^= 1
	if checkPayload(pt, tn.payload) != nil || checkPayload(pt, wrong) == nil {
		t.Error("checkPayload does not tell the sealed bytes from wrong ones")
	}
	if checkFrozen(lib) == nil {
		t.Error("checkFrozen passes a live library")
	}
	if err := lib.StartMigration(w.machines[1].MEAddress()); err != nil {
		t.Fatal(err)
	}
	if err := checkFrozen(lib); err != nil {
		t.Errorf("checkFrozen fails a migrated-away library: %v", err)
	}
}

// TestEvacuationCheckFailsOnWrongExpectations runs one evacuation round
// and hands its real journal to checkEvacuation with wrong expectations.
func TestEvacuationCheckFailsOnWrongExpectations(t *testing.T) {
	w := newWANEvacuate(3).(*wanEvacuate)
	if err := w.setup(&env{}); err != nil {
		t.Fatal(err)
	}
	planned := make(map[string]bool)
	sources := make(map[string]*cloud.App)
	for name, tn := range w.tenants {
		planned[name] = true
		sources[name] = tn.app
	}
	plan, targets := w.plan(0)
	rep, err := w.orch[0].Execute(t.Context(), plan)
	if err != nil {
		t.Fatal(err)
	}
	entries := rep.Journal.Entries()
	confirmed := make(map[string]bool)
	for name, src := range sources {
		confirmed[name] = doneConfirmed(src)
	}
	landed := liveByName(w.machines()...)
	if bad, err := checkEvacuation(entries, planned, confirmed, targets, landed); err != nil || len(bad) != 0 {
		t.Fatalf("clean evacuation reported %v, %v", bad, err)
	}
	first := entries[0].App

	extra := map[string]bool{"wan/never-launched": true}
	for n := range planned {
		extra[n] = true
	}
	if bad, _ := checkEvacuation(entries, extra, confirmed, targets, landed); bad["wan/never-launched"] == "" {
		t.Error("a planned enclave with no journal entry passes")
	}
	if bad, _ := checkEvacuation(entries, planned, confirmed, map[string]bool{"b1": true}, landed); len(bad) == 0 {
		t.Error("enclaves landed outside the plan's targets pass")
	}
	unconfirmed := make(map[string]bool, len(confirmed))
	for n, c := range confirmed {
		unconfirmed[n] = c
	}
	unconfirmed[first] = false
	if bad, _ := checkEvacuation(entries, planned, unconfirmed, targets, landed); bad[first] == "" {
		t.Error("an enclave whose source holds no DONE confirmation passes")
	}
	for _, field := range []string{"SourceFrozen", "Status", "Dest"} {
		mutated := append(entries[:0:0], entries...)
		switch field {
		case "SourceFrozen":
			mutated[0].SourceFrozen = false
		case "Status":
			mutated[0].Status = 0
		case "Dest":
			mutated[0].Dest = "a1"
		}
		if bad, _ := checkEvacuation(mutated, planned, confirmed, targets, landed); bad[first] == "" {
			t.Errorf("a journal entry with a wrong %s passes", field)
		}
	}
	if _, err := checkEvacuation(append(entries, entries[0]), planned, confirmed, targets, landed); err != nil {
		t.Errorf("duplicate entry of a planned enclave reported as unplanned: %v", err)
	}
	if bad, _ := checkEvacuation(append(entries, entries[0]), planned, confirmed, targets, landed); bad[first] == "" {
		t.Error("an enclave journaled twice passes")
	}
	twice := make(map[string][]string, len(landed))
	for n, ms := range landed {
		twice[n] = ms
	}
	twice[first] = append(twice[first], "b9")
	if bad, _ := checkEvacuation(entries, planned, confirmed, targets, twice); bad[first] == "" {
		t.Error("an enclave live on two machines passes")
	}
	delete(planned, first)
	if _, err := checkEvacuation(entries, planned, confirmed, targets, landed); err == nil {
		t.Error("an unplanned enclave passes")
	}
}

// TestCorruptModelFailsOperations corrupts the benchmark's model of one
// piece of state per workload and requires the next round (or the final
// check, for state no round touches) to fail.
func TestCorruptModelFailsOperations(t *testing.T) {
	t.Run("dc-migrate", func(t *testing.T) {
		w := newDCMigrate(5).(*dcMigrate)
		if err := w.setup(&env{}); err != nil {
			t.Fatal(err)
		}
		w.resident[3].ctrs[0]++
		if err := w.finish(); err == nil {
			t.Error("a resident whose counter differs from the model passes the final check")
		}
		w.resident[3].ctrs[0]--
		p := append([]byte(nil), w.resident[4].payload...)
		p[0] ^= 1
		w.resident[4].payload = p
		if err := w.finish(); err == nil {
			t.Error("a resident whose payload differs from the model passes the final check")
		}
	})
	t.Run("wan-evacuate", func(t *testing.T) {
		w := newWANEvacuate(5).(*wanEvacuate)
		if err := w.setup(&env{}); err != nil {
			t.Fatal(err)
		}
		for _, tn := range w.tenants {
			if len(tn.ctrs) > 0 {
				tn.ctrs[0] += 2
				break
			}
		}
		if _, failed := w.round(newPhase(w.e), samples{}); failed != 1 {
			t.Errorf("one corrupted counter model: %d failed migrations, want 1", failed)
		}
	})
	t.Run("rack-serve", func(t *testing.T) {
		w := newRackServe(5).(*rackServe)
		if err := w.setup(&env{}); err != nil {
			t.Fatal(err)
		}
		for _, tn := range w.clients[0].tenants {
			for i := range tn.ctrs {
				tn.ctrs[i] += 2
			}
		}
		if _, failed := w.round(newPhase(&env{}), samples{}); failed == 0 {
			t.Error("corrupted counter models: no operation failed")
		}
	})
}
