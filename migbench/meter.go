package main

import (
	"sync"
	"time"

	"repro/internal/transport"
)

// kindTotals is the traffic of one message kind: requests sent, request
// plus reply bytes, and the time senders spent inside Send.
type kindTotals struct {
	msgs  int64
	bytes int64
	busy  time.Duration
}

func (a kindTotals) plus(b kindTotals) kindTotals {
	return kindTotals{a.msgs + b.msgs, a.bytes + b.bytes, a.busy + b.busy}
}

func (a kindTotals) minus(b kindTotals) kindTotals {
	return kindTotals{a.msgs - b.msgs, a.bytes - b.bytes, a.busy - b.busy}
}

// kindMeter is the traced run's Messenger wrapper: it counts, sizes and
// times every Send by message kind. A message bridged over a WAN link
// passes through the meters of both data centers; each is counted once,
// by the meter of the data center it was sent from, so the far side
// skips Sends whose sender is one of the peer data center's machines.
type kindMeter struct {
	inner transport.Messenger

	mu      sync.Mutex
	foreign map[transport.Address]bool
	kinds   map[string]kindTotals
}

func newKindMeter(inner transport.Messenger) *kindMeter {
	return &kindMeter{inner: inner, foreign: make(map[transport.Address]bool), kinds: make(map[string]kindTotals)}
}

// markForeign names an address of the peer data center.
func (m *kindMeter) markForeign(a transport.Address) {
	m.mu.Lock()
	m.foreign[a] = true
	m.mu.Unlock()
}

func (m *kindMeter) Register(addr transport.Address, h transport.Handler) error {
	return m.inner.Register(addr, h)
}

func (m *kindMeter) Unregister(addr transport.Address) { m.inner.Unregister(addr) }

func (m *kindMeter) Send(from, to transport.Address, kind string, payload []byte) ([]byte, error) {
	start := time.Now()
	reply, err := m.inner.Send(from, to, kind, payload)
	busy := time.Since(start)
	m.mu.Lock()
	if !m.foreign[from] {
		t := m.kinds[kind]
		t.msgs++
		t.bytes += int64(len(payload) + len(reply))
		t.busy += busy
		m.kinds[kind] = t
	}
	m.mu.Unlock()
	return reply, err
}

func (m *kindMeter) totals() map[string]kindTotals {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]kindTotals, len(m.kinds))
	for k, t := range m.kinds {
		out[k] = t
	}
	return out
}
