package main

import (
	"bytes"
	"errors"
	"fmt"
	"sort"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/sgx"
)

// checkRead: a read returns the modeled value.
func checkRead(got, want uint32) error {
	if got != want {
		return fmt.Errorf("read returned %d, model holds %d", got, want)
	}
	return nil
}

// checkIncrement: an increment returns the modeled value plus one.
func checkIncrement(got, before uint32) error {
	if got != before+1 {
		return fmt.Errorf("increment returned %d, model held %d", got, before)
	}
	return nil
}

// checkMonotonic: no counter call returns less than a value an earlier
// call already returned (rollback protection as a client sees it).
func checkMonotonic(got, floor uint32) error {
	if got < floor {
		return fmt.Errorf("counter went back from %d to %d", floor, got)
	}
	return nil
}

// checkPayload: a sealed payload unseals to the bytes that were sealed.
func checkPayload(got, want []byte) error {
	if !bytes.Equal(got, want) {
		return fmt.Errorf("unsealed %d bytes differ from the %d bytes sealed", len(got), len(want))
	}
	return nil
}

// checkFrozen: a migrated-away source library reports Frozen and refuses
// a counter operation, so no second copy of the enclave can advance its
// counters (fork-freedom).
func checkFrozen(lib *core.Library) error {
	if !lib.Frozen() {
		return errors.New("source library is not frozen after migration")
	}
	_, err := lib.ReadCounter(0)
	if err == nil {
		return errors.New("frozen source library served a counter read")
	}
	if !errors.Is(err, core.ErrFrozen) && !errors.Is(err, sgx.ErrEnclaveDestroyed) {
		return fmt.Errorf("frozen source library failed a counter read for another reason: %w", err)
	}
	return nil
}

// checkEvacuation checks one evacuation plan against the set of enclaves
// it was to move: every planned enclave has exactly one journal entry,
// completed with the source frozen; its source Migration Enclave holds
// the destination's DONE confirmation (confirmed); and it lives
// afterwards exactly once, on the machine its entry names, which is one
// of the plan's targets. It returns the failure reason per enclave and
// an error for journal entries or enclaves that were never planned.
//
// The journal's own DoneConfirmed flag is not used: the fleet reads it
// while a concurrent flush may still carry the DONE (see README), so it
// reads false now and then for a confirmation that does arrive.
func checkEvacuation(entries []fleet.Entry, planned, confirmed, targets map[string]bool, landed map[string][]string) (map[string]string, error) {
	bad := make(map[string]string)
	byApp := make(map[string][]fleet.Entry, len(entries))
	var stray []string
	for _, e := range entries {
		if !planned[e.App] {
			stray = append(stray, "journal:"+e.App)
		}
		byApp[e.App] = append(byApp[e.App], e)
	}
	for name := range landed {
		if !planned[name] {
			stray = append(stray, "enclave:"+name)
		}
	}
	for name := range planned {
		es := byApp[name]
		if len(es) != 1 {
			bad[name] = fmt.Sprintf("%d journal entries, want 1", len(es))
			continue
		}
		e := es[0]
		switch {
		case e.Status != fleet.StatusCompleted:
			bad[name] = fmt.Sprintf("status %s: %s", e.Status, e.Err)
		case !e.SourceFrozen:
			bad[name] = "journal entry without SourceFrozen"
		case !confirmed[name]:
			bad[name] = "source Migration Enclave holds no DONE confirmation"
		case !targets[e.Dest]:
			bad[name] = fmt.Sprintf("landed on %s, not a plan target", e.Dest)
		case len(landed[name]) != 1 || landed[name][0] != e.Dest:
			bad[name] = fmt.Sprintf("live on %v, journal says %s", landed[name], e.Dest)
		}
	}
	if len(stray) > 0 {
		sort.Strings(stray)
		return bad, fmt.Errorf("unplanned: %v", stray)
	}
	return bad, nil
}

// liveByName maps each live application's image name to the machines it
// runs on.
func liveByName(machines ...*cloud.Machine) map[string][]string {
	out := make(map[string][]string)
	for _, m := range machines {
		for _, a := range m.Apps() {
			out[a.Image().Name] = append(out[a.Image().Name], m.ID())
		}
	}
	return out
}
