package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"tlb/internal/eventsim"
	"tlb/internal/lb"
	"tlb/internal/netem"
	"tlb/internal/topology"
	"tlb/internal/workload"
)

// span is one timed interval at a layer boundary. Parent is the ID of
// the span that caused it, 0 for a root.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"startNs"`
	End    time.Duration `json:"endNs"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// spanLog keeps a run's spans in memory. Spans may begin and end on
// several goroutines (the sharded runner builds its per-shard networks
// concurrently), so every access takes the lock.
type spanLog struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// begin opens a span and returns its ID. A nil log records nothing.
func (l *spanLog) begin(name string, parent int) int {
	if l == nil {
		return 0
	}
	now := time.Since(l.origin)
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Start: now})
	return id
}

// end closes the span.
func (l *spanLog) end(id int) {
	if l == nil {
		return
	}
	now := time.Since(l.origin)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[id-1].End = now
}

// snapshot returns a copy of every span recorded so far.
func (l *spanLog) snapshot() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]span(nil), l.spans...)
}

// writeFile stores the spans as JSON.
func (l *spanLog) writeFile(path string) error {
	data, err := json.MarshalIndent(l.snapshot(), "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTime is the span's duration minus the part of its interval that
// its children cover. Children may overlap each other (concurrent
// shard builds), so the covered part is the length of the union of
// their intervals, clipped to the parent's.
func selfTime(spans []span, id int) time.Duration {
	var parent span
	var kids [][2]time.Duration
	for _, s := range spans {
		if s.ID == id {
			parent = s
		}
	}
	for _, s := range spans {
		if s.Parent != id {
			continue
		}
		lo, hi := max(s.Start, parent.Start), min(s.End, parent.End)
		if lo < hi {
			kids = append(kids, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i][0] < kids[j][0] })
	var covered, reach time.Duration
	reach = parent.Start
	for _, k := range kids {
		lo := max(k[0], reach)
		if k[1] > lo {
			covered += k[1] - lo
			reach = k[1]
		}
	}
	return parent.dur() - covered
}

// seamCounter counts calls through one wrapped seam instance and the
// wall time spent inside them. Each instance is used by the single
// goroutine that owns the engine it was built for.
type seamCounter struct {
	calls int64
	busy  time.Duration
}

func (c *seamCounter) add(o seamCounter) {
	c.calls += o.calls
	c.busy += o.busy
}

// seamSet registers seam instances. The sharded runner builds
// balancers, networks and sources on concurrent goroutines, so each
// instance gets its own counter and only registration is locked.
type seamSet struct {
	mu       sync.Mutex
	counters []*seamCounter
}

func (s *seamSet) add() *seamCounter {
	c := &seamCounter{}
	s.mu.Lock()
	s.counters = append(s.counters, c)
	s.mu.Unlock()
	return c
}

// total sums every registered instance. Call it only after the run
// that used the instances has returned.
func (s *seamSet) total() seamCounter {
	s.mu.Lock()
	defer s.mu.Unlock()
	var t seamCounter
	for _, c := range s.counters {
		t.add(*c)
	}
	return t
}

// buildFunc is the sim.Scenario.BuildNetwork seam.
type buildFunc = func(*eventsim.Sim, lb.Factory, *eventsim.RNG, topology.DeliverFunc) (topology.Network, error)

// leafSpineBuild is what the runner does for a scenario that leaves
// BuildNetwork unset, expressed as the seam so it can be timed.
func leafSpineBuild(cfg topology.Config) buildFunc {
	return func(s *eventsim.Sim, f lb.Factory, rng *eventsim.RNG, deliver topology.DeliverFunc) (topology.Network, error) {
		fab, err := topology.New(s, cfg, f, rng, deliver)
		if err != nil {
			return nil, err
		}
		return fab, nil
	}
}

// probe instruments one scenario run: it wraps the balancer factory,
// the network build (and through it the host delivery function) and
// the lazy flow source, counting and timing every call.
type probe struct {
	spans   *spanLog
	session int // span ID of the enclosing session run

	picks, delivers, nexts seamSet
}

func (p *probe) factory(f lb.Factory) lb.Factory {
	return func(s *eventsim.Sim, rng *eventsim.RNG, ports []*netem.Port) lb.Balancer {
		return &timedBalancer{Balancer: f(s, rng, ports), c: p.picks.add()}
	}
}

func (p *probe) network(build buildFunc) buildFunc {
	return func(s *eventsim.Sim, f lb.Factory, rng *eventsim.RNG, deliver topology.DeliverFunc) (topology.Network, error) {
		dc := p.delivers.add()
		timed := func(host int, pkt *netem.Packet) {
			t0 := time.Now()
			deliver(host, pkt)
			dc.busy += time.Since(t0)
			dc.calls++
		}
		id := p.spans.begin("topology.build", p.session)
		defer p.spans.end(id)
		return build(s, f, rng, timed)
	}
}

func (p *probe) source(newSource func() workload.Source) func() workload.Source {
	return func() workload.Source {
		return &timedSource{src: newSource(), c: p.nexts.add()}
	}
}

type timedBalancer struct {
	lb.Balancer
	c *seamCounter
}

func (b *timedBalancer) Pick(pkt *netem.Packet, ports []*netem.Port) int {
	t0 := time.Now()
	i := b.Balancer.Pick(pkt, ports)
	b.c.busy += time.Since(t0)
	b.c.calls++
	return i
}

type timedSource struct {
	src workload.Source
	c   *seamCounter
}

func (s *timedSource) Next() (workload.Flow, bool) {
	t0 := time.Now()
	f, ok := s.src.Next()
	s.c.busy += time.Since(t0)
	s.c.calls++
	return f, ok
}
