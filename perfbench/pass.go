package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime/metrics"
	"syscall"
	"time"

	"tlb/internal/eventsim"
	"tlb/internal/netem"
	"tlb/internal/sim"
	"tlb/internal/spec"
	"tlb/internal/units"
)

// compiled is one scenario ready to run: the compiled spec plus its
// network-construction seam.
type compiled struct {
	name  string
	flows int // flows the spec asks for
	sc    sim.Scenario
	build buildFunc
}

// encodeSpecs renders the generated specs as the JSON documents the
// program receives.
func encodeSpecs(specs []spec.Spec) ([][]byte, error) {
	docs := make([][]byte, len(specs))
	for i := range specs {
		b, err := json.Marshal(&specs[i])
		if err != nil {
			return nil, fmt.Errorf("encode spec %s: %w", specs[i].Name, err)
		}
		docs[i] = b
	}
	return docs, nil
}

// setup decodes, validates and compiles every document and builds each
// scenario's network once through its BuildNetwork seam, on a throwaway
// engine. It returns the compiled scenarios. With a span log, every
// step is recorded as a child of one "setup" span.
func setup(docs [][]byte, spans *spanLog) ([]compiled, error) {
	root := spans.begin("setup", 0)
	defer spans.end(root)
	out := make([]compiled, 0, len(docs))
	for _, doc := range docs {
		var s spec.Spec
		id := spans.begin("spec.decode", root)
		dec := json.NewDecoder(bytes.NewReader(doc))
		dec.DisallowUnknownFields()
		err := dec.Decode(&s)
		spans.end(id)
		if err != nil {
			return nil, fmt.Errorf("decode spec: %w", err)
		}
		id = spans.begin("spec.validate", root)
		err = s.Validate()
		spans.end(id)
		if err != nil {
			return nil, fmt.Errorf("validate spec %s: %w", s.Name, err)
		}
		id = spans.begin("spec.compile", root)
		sc, err := s.Compile()
		spans.end(id)
		if err != nil {
			return nil, fmt.Errorf("compile spec %s: %w", s.Name, err)
		}
		c := compiled{name: s.Name, flows: flowCount(&s), sc: sc, build: sc.BuildNetwork}
		if c.build == nil {
			c.build = leafSpineBuild(sc.Topology)
		}
		id = spans.begin("topology.build", root)
		_, err = c.build(eventsim.New(), sc.Balancer, eventsim.NewRNG(sc.Seed), func(int, *netem.Packet) {})
		spans.end(id)
		if err != nil {
			return nil, fmt.Errorf("build network of %s: %w", s.Name, err)
		}
		out = append(out, c)
	}
	return out, nil
}

// simStats are the simulated statistics of one scenario: outputs of
// the simulator, identical for a seed whatever the host speed.
type simStats struct {
	Name      string
	Flows     int
	Completed int
	AFCTShort units.Time
	AFCTLong  units.Time
	P99Short  units.Time
	Drops     int64
	Retx      int64
	EndTime   units.Time
}

func (s simStats) String() string {
	return fmt.Sprintf("%s flows=%d completed=%d afct_short=%s afct_long=%s p99_short=%s drops=%d retx=%d end=%s",
		s.Name, s.Flows, s.Completed, units.FormatTime(s.AFCTShort), units.FormatTime(s.AFCTLong),
		units.FormatTime(s.P99Short), s.Drops, s.Retx, units.FormatTime(s.EndTime))
}

// digest hashes the simulated statistics of a pass in run order.
func digest(stats []simStats) string {
	h := sha256.New()
	for _, s := range stats {
		fmt.Fprintf(h, "%s|%d|%d|%d|%d|%d|%d|%d|%d\n", s.Name, s.Flows, s.Completed,
			s.AFCTShort, s.AFCTLong, s.P99Short, s.Drops, s.Retx, s.EndTime)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// scenarioRun is one scenario's outcome within a pass.
type scenarioRun struct {
	stats simStats
	err   error
	res   *sim.Result
	// Filled on traced passes only.
	probe  *probe
	events uint64
}

// pass is the outcome of running a workload's scenarios once, back to
// back.
type pass struct {
	wall, cpu time.Duration // run phase: Session.Run plus the accessor calls
	runs      []scenarioRun
	attempted int
	completed int
	failed    int
	digest    string
	root      int // span ID of a traced pass
	// Go runtime counters over the run phase.
	allocBytes, allocObjects, gcCycles uint64
}

// runPass runs every scenario once. The run phase is Session.Run plus
// the Result accessors a figure calls (AFCT, p99 FCT, goodput,
// out-of-order ratio). With a span log the pass is traced: every seam
// is wrapped and timed and every step recorded as a span.
func runPass(cs []compiled, spans *spanLog) pass {
	var p pass
	traced := spans != nil
	root := spans.begin("pass", 0)
	p.root = root
	rt0 := readRuntime()
	cpu0 := cpuTime()
	t0 := time.Now()
	for _, c := range cs {
		sc := c.sc
		var opts sim.SessionOptions
		r := scenarioRun{stats: simStats{Name: c.name, Flows: c.flows}}
		scen := spans.begin("scenario", root)
		session := spans.begin("sim.session", scen)
		if traced {
			r.probe = &probe{spans: spans, session: session}
			sc.Balancer = r.probe.factory(sc.Balancer)
			sc.BuildNetwork = r.probe.network(c.build)
			if sc.FlowSourceNew != nil {
				sc.FlowSourceNew = r.probe.source(sc.FlowSourceNew)
			}
			opts.SnapshotEvery = sim.NoSnapshots
			opts.Observer = sim.ObserverFunc(func(ev sim.ProgressEvent) {
				if ev.Kind == sim.ProgressDone {
					r.events = ev.Events
				}
			})
		}
		r.res, r.err = sim.NewSession(sc, opts).Run()
		spans.end(session)
		if r.err == nil {
			acc := spans.begin("stats.accessors", scen)
			readStats(r.res, &r.stats)
			spans.end(acc)
		}
		spans.end(scen)
		p.attempted += c.flows
		if r.err != nil {
			p.failed += c.flows
		} else {
			p.completed += r.stats.Completed
			p.failed += c.flows - r.stats.Completed
		}
		p.runs = append(p.runs, r)
	}
	p.wall = time.Since(t0)
	p.cpu = cpuTime() - cpu0
	rt1 := readRuntime()
	spans.end(root)
	p.allocBytes = rt1[0].Value.Uint64() - rt0[0].Value.Uint64()
	p.allocObjects = rt1[1].Value.Uint64() - rt0[1].Value.Uint64()
	p.gcCycles = rt1[2].Value.Uint64() - rt0[2].Value.Uint64()
	stats := make([]simStats, len(p.runs))
	for i, r := range p.runs {
		stats[i] = r.stats
	}
	p.digest = digest(stats)
	return p
}

// accessorSink keeps the accessor results a figure would plot live, so
// the calls are not optimized away.
var accessorSink float64

// readStats calls the Result accessors a figure reduces a run to and
// records the simulated statistics.
func readStats(res *sim.Result, st *simStats) {
	st.Completed = res.CompletedCount(sim.AllFlows)
	st.AFCTShort = res.AFCT(sim.ShortFlows)
	st.AFCTLong = res.AFCT(sim.LongFlows)
	st.P99Short = res.FCTPercentile(sim.ShortFlows, 99)
	st.Drops = res.Drops
	st.Retx = res.TotalRetransmits(sim.AllFlows)
	st.EndTime = res.EndTime
	accessorSink += float64(res.Goodput(sim.LongFlows)) + res.OutOfOrderRatio(sim.AllFlows)
}

// readRuntime samples the cumulative allocation and GC counters.
func readRuntime() []metrics.Sample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return s
}

// cpuTime is the process's user plus system CPU time so far, every
// thread included (GC workers, shard goroutines).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF and a valid pointer
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSBytes is the process's peak resident set size.
func peakRSSBytes() int64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF and a valid pointer
	return ru.Maxrss * 1024                         // Linux reports KiB
}
