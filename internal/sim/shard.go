// The runner: one scenario spatially partitioned across event engines.
// An unsharded run is the one-shard partition, on the same code path.
//
// Each shard builds its OWN complete copy of the network and hosts
// (identical construction, same seed, so RNG consumption matches at
// every shard count) but drives only the components its partition
// owns: flows open where their endpoints live, boundary egress ports
// capture crossing packets as value handoffs (topology.Network's
// partition methods), and unowned switches simply never see traffic.
//
// Synchronization is conservative lookahead (Chandy–Misra–Bryant
// windows): the minimum propagation delay L over all shard-boundary
// links bounds how far any shard may run ahead, because a packet
// admitted at time t cannot arrive in another shard before t + L.
// The coordinator runs fixed-width windows [start, start+L): every
// shard executes its events through the window, then all exchange
// handoffs and completion messages at a barrier. A handoff emitted
// inside a window is therefore always delivered in a strictly later
// one — never in a shard's past. Window *starts* jump over idle gaps
// (to the earliest pending event or handoff anywhere) so a quiet
// simulation does not pay L-sized steps; window *width* never exceeds
// L, which is what preserves causality. A single shard has no boundary
// and no lookahead: it runs inline on the session goroutine, in the
// session's snapshot/cancel windows, without a barrier.
//
// Determinism: every delivery — local or handed off — is scheduled in
// the engine's keyed domain under netem.DeliveryKey(admission time,
// port index), a pure function of traffic and topology, so two events
// colliding on one nanosecond order identically whether they met on
// one engine or arrived across a boundary (each epoch's incoming
// handoffs are additionally scheduled in topology.HandoffBefore order —
// the same (DeliverAt, AdmittedAt, SrcPort) order). Flow teardown
// obeys the same finite-latency rule as packets: a sender's completion
// closes its receiver via a keyed event at completion + lag
// (teardownLag, ≥ the window width), which a cross-shard closeMsg
// delivered at the next barrier re-creates exactly — an instantaneous
// close would be a zero-latency cross-shard influence, and whether a
// late retransmission meets an open or a closed receiver would then
// depend on the partition. Order-sensitive floating-point reductions
// (time series, per-packet samples, goodput ticks) are logged per shard
// and replayed in one canonical sorted order (replaySamples,
// replayGoodput). Everything shards exchange is a value — no mutable
// memory is shared between shard goroutines, and packet pool ownership
// never crosses one (packetown stays clean).
//
// Barrier exchange: in steady state it allocates nothing. Each
// destination shard's undelivered handoffs wait in a
// topology.HandoffHeap; at every barrier the coordinator pops the due
// ones, already in delivery order, into that shard's reused due
// buffer. Shards reuse their outbound buffers, and each shard's close
// messages alternate between two buffers. Ownership follows the
// channel barrier:
//   - The due and close buffers a work order carries, and the shard's
//     own outHandoffs/outDones, belong to the shard from that work
//     order until its shardEpochOut. The coordinator touches them only
//     between receiving that report and sending the next work order.
//   - runEpoch passes &due[j] itself to AtKey. Every due handoff has
//     DeliverAt ≤ deadline, so its event fires inside the same
//     RunUntil(deadline), before the coordinator refills the buffer.
//     (A window that stops early on an error ends the run.)
//
// The race detector checks the rule in the -race tests and make
// shard-smoke.
//
// Exactness: with MaxTime-bounded runs every counter, flow record,
// sample and series bucket is the same at every shard count. Known
// residual divergences from a one-shard run, all bounded and
// deterministic for a given shard count: (1) under StopWhenDone, one
// shard stops its engine at the final completion, but several shards
// finish the last window after it, so packets still draining can bump
// port/drop counters the one-shard run never executed (flow records
// are unaffected: all senders have completed, and every receiver froze
// its stats at payload completion); (2) streaming-stats mean/variance
// fold in barrier order, identical across runs of the same shard count
// but rounding-different across counts (counters and the quantile
// sketch merge exactly). The figure-identity tests in
// internal/experiments pin both to byte-identical CSV output on every
// acceptance figure.
package sim

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"

	"tlb/internal/eventsim"
	"tlb/internal/faults"
	"tlb/internal/netem"
	"tlb/internal/stats"
	"tlb/internal/topology"
	"tlb/internal/trace"
	"tlb/internal/transport"
	"tlb/internal/units"
	"tlb/internal/workload"
)

// closeMsg carries a cross-shard flow completion from the sender's
// shard to the receiver's: the destination folds or snapshots the
// merged record and schedules the receiver teardown at its keyed
// position (see applyCloses). Applied at barriers in (at, idx) order.
type closeMsg struct {
	idx      int   // global flow index
	dstShard int32 // shard owning the receiver
	at       units.Time
	short    bool
	sender   transport.FlowStats // sender-half record, by value
}

// sampleRec is one logged receiver packet sample, replayed in a
// sorted merge (TimeSeries float sums are order-dependent).
type sampleRec struct {
	ps    transport.PacketSample
	short bool
}

// tickRec is one flow's goodput-sampler delta at one tick.
type tickRec struct {
	at    units.Time
	idx   int32
	short bool
	delta units.Bytes
}

// openRec remembers a flow opened with its sender on this shard, in
// open order — the record-mode result set and the goodput sampler's
// iteration domain. A replicated flow's canonical record is logged
// when it is scheduled, ahead of every opened flow.
type openRec struct {
	idx   int
	start units.Time
	short bool
	cross bool // receiver lives on another shard
	stats *transport.FlowStats
	last  units.Bytes // goodput sampler: BytesAcked at last tick
}

// shardEpochIn is one window's work order for a shard. Both slices
// are coordinator buffers lent to the shard until its shardEpochOut.
type shardEpochIn struct {
	deadline units.Time
	handoffs []topology.Handoff // due this window, in HandoffBefore order
	closes   []closeMsg         // sorted by (at, idx)
}

// shardEpochOut is a shard's barrier report. Both slices are the
// shard's own buffers, lent to the coordinator until the next work
// order.
type shardEpochOut struct {
	handoffs  []topology.Handoff // emitted this window
	dones     []closeMsg         // cross-shard completions this window
	nextAt    units.Time         // earliest pending local event
	hasNext   bool
	remaining int // owned-sender flows not yet completed
	drained   bool
	lastDone  units.Time // latest completion seen so far
	err       error
}

// shardState is one shard's complete private world. Only its own
// goroutine touches it between the channel barriers.
type shardState struct {
	id   int
	sc   *Scenario
	cfg  transport.Config // sc.Transport with this shard's pool
	sim  *eventsim.Sim
	net  topology.Network
	part *topology.Partition

	hosts     []*transport.Host
	hostOwner []int

	src workload.Source

	remaining int
	drained   bool
	lastDone  units.Time
	closeLag  units.Time // finite teardown latency, same value at every shard count
	// selfStop makes the shard stop its engine at the final completion
	// under StopWhenDone. Only a lone shard may: with several, the
	// coordinator decides at the next barrier.
	selfStop bool
	err      error

	outHandoffs []topology.Handoff
	outDones    []closeMsg
	applyFn     func(any)

	// rstats holds the receiver-half record of every open cross-shard
	// flow terminating here, by global flow index; rFinal snapshots it
	// at close (record mode).
	rstats map[int]*transport.FlowStats
	rFinal map[int]transport.FlowStats

	agg *StreamAgg // per-shard fold target (stream mode)
	// obsAgg mirrors agg for observed record-mode runs: snapshots want
	// per-class aggregates even when records are retained. Folded at
	// the same points as agg, read only at barriers.
	obsAgg *StreamAgg
	// started/done count sender-owned flow opens and completions for
	// the progress stream, summed across shards at barriers.
	started int64
	done    int64

	openLog []openRec
	samples []sampleRec
	ticks   []tickRec
}

// runShards is the runner behind every Session.Run; the session has
// already applied defaults and the shared validation.
func runShards(ss *Session) (*Result, error) {
	sc := &ss.sc
	if sc.Shards > 1 && sc.Replication != nil {
		return nil, fmt.Errorf("sim: scenario %q: Shards > 1 is incompatible with Replication (racing copies share one record); run with Shards: 1", sc.Name)
	}
	if sc.Shards > 1 && sc.Tracer != nil {
		return nil, fmt.Errorf("sim: scenario %q: Shards > 1 is incompatible with a Tracer (trace order is engine-local); run with Shards: 1", sc.Name)
	}

	// Build shard 0 first to learn the partition after clamping to the
	// topology's parallelism.
	first, la, err := buildShard(sc, 0)
	if err != nil {
		return nil, err
	}
	n := first.part.Shards
	window := ss.window()
	// Flow teardown travels at the same finite latency at every shard
	// count (see teardownLag).
	lag := teardownLag(first.net, sc.Faults)
	if n == 1 {
		la = window
	} else {
		// The lookahead is the minimum boundary propagation delay,
		// further tightened by any scheduled OpDelay — a fault may
		// shrink a boundary link mid-run, and the window width must
		// stay causal under the smallest delay that can ever be in
		// effect.
		for _, ev := range sc.Faults {
			if ev.Op == faults.OpDelay && ev.Delay < la {
				la = ev.Delay
			}
		}
		if la <= 0 {
			return nil, fmt.Errorf("sim: scenario %q: Shards > 1 requires a positive minimum boundary-link delay (lookahead %v)", sc.Name, la)
		}
		// The lag is computed over every boundary-capable link, so it
		// can only tighten the window — which keeps a close event
		// scheduled from a barrier (at completion + lag) always in a
		// later window than the completion's.
		if lag <= 0 {
			return nil, fmt.Errorf("sim: scenario %q: Shards > 1 requires a positive minimum fabric-link delay (teardown lag %v)", sc.Name, lag)
		}
		if lag < la {
			la = lag
		}
	}

	shards := make([]*shardState, n)
	shards[0] = first
	for i := 1; i < n; i++ {
		if shards[i], _, err = buildShard(sc, i); err != nil {
			return nil, err
		}
	}
	for _, st := range shards {
		st.closeLag = lag
		st.selfStop = n == 1 && sc.StopWhenDone
		if ss.observing() && !sc.StreamStats {
			st.obsAgg = &StreamAgg{}
		}
		if err := st.scheduleFlows(); err != nil {
			return nil, err
		}
		if sc.CollectTimeSeries {
			st.installTicker()
		}
	}

	// Snapshot plumbing: the uplink port objects and their global
	// owner assignment are topology structure, fixed before any event
	// runs — captured here so barrier snapshots and the final Result
	// assemble the identical port set.
	ports := make([][]*netem.Port, n)
	for i, st := range shards {
		ports[i] = st.net.BalancedPorts()
	}
	owners := shards[0].net.BalancedPortOwners(shards[0].part)

	// exchange runs one window on every shard: inline for a lone
	// shard, through its goroutine's channel pair otherwise.
	ins := make([]shardEpochIn, n)
	outs := make([]shardEpochOut, n)
	exchange := func() { outs[0] = shards[0].runEpoch(ins[0]) }
	stopWorkers := func() {}
	if n > 1 {
		inCh := make([]chan shardEpochIn, n)
		outCh := make([]chan shardEpochOut, n)
		var wg sync.WaitGroup
		for i, st := range shards {
			inCh[i] = make(chan shardEpochIn, 1)
			outCh[i] = make(chan shardEpochOut, 1)
			wg.Add(1)
			go st.serve(inCh[i], outCh[i], &wg)
		}
		exchange = func() {
			for i := range inCh {
				inCh[i] <- ins[i]
			}
			for i := range outCh {
				outs[i] = <-outCh[i]
			}
		}
		stopWorkers = func() {
			for _, in := range inCh {
				close(in)
			}
			wg.Wait()
		}
	}

	// The epoch loop. pendingH/pendingC hold messages produced in past
	// windows, not yet due / not yet delivered; due and spareC are the
	// buffers lent to each shard with its work order (see the
	// ownership rule in the file comment).
	pendingH := make([]topology.HandoffHeap, n)
	due := make([][]topology.Handoff, n)
	pendingC := make([][]closeMsg, n)
	spareC := make([][]closeMsg, n)
	maxT := sc.MaxTime
	nextSnap := window
	var (
		cur     units.Time
		endTime units.Time
		runErr  error
	)
	for {
		// Cooperative cancel, checked between windows.
		if ss.Canceled() {
			stopWorkers()
			return nil, ss.cancelErr()
		}
		deadline := cur + la - 1
		if n == 1 {
			// A lone shard's windows end on multiples of the session
			// window, so each snapshot lands on its period.
			deadline = cur + la
		}
		if deadline > maxT || deadline < cur {
			deadline = maxT
		}
		for i := range shards {
			due[i] = pendingH[i].PopDue(due[i][:0], deadline)
			cs := pendingC[i]
			sortCloses(cs)
			pendingC[i], spareC[i] = spareC[i][:0], cs
			ins[i] = shardEpochIn{deadline: deadline, handoffs: due[i], closes: cs}
		}
		exchange()
		if n > 1 {
			ss.epochs++
		}
		total := 0
		allDrained := true
		var last, next units.Time
		hasNext := false
		for i := range outs {
			o := &outs[i]
			if o.err != nil && runErr == nil {
				runErr = o.err
			}
			for j := range o.handoffs {
				h := &o.handoffs[j]
				pendingH[h.DstShard].Push(h)
			}
			ss.handoffs += uint64(len(o.handoffs))
			for _, d := range o.dones {
				pendingC[d.dstShard] = append(pendingC[d.dstShard], d)
			}
			total += o.remaining
			allDrained = allDrained && o.drained
			if o.lastDone > last {
				last = o.lastDone
			}
			if o.hasNext && (!hasNext || o.nextAt < next) {
				next, hasNext = o.nextAt, true
			}
		}
		// Every shard is parked at the barrier now (blocked on its next
		// work order), so reading shard-private state here is race-free:
		// the happens-before chain runs through the outs receive above.
		ss.flowsStarted, ss.flowsDone, ss.events = 0, 0, 0
		for _, st := range shards {
			ss.flowsStarted += st.started
			ss.flowsDone += st.done
			ss.events += st.sim.Executed()
		}
		if runErr != nil {
			stopWorkers()
			return nil, runErr
		}
		if sc.StopWhenDone && total == 0 && allDrained {
			endTime = last
			break
		}
		if deadline >= maxT {
			endTime = maxT
			break
		}
		if ss.observing() && deadline >= nextSnap {
			// Barrier snapshot: merge the per-shard aggregate copies —
			// exact, the same reduction the final Result performs — and
			// snapshot the uplink ports in their global order.
			ev := ss.baseEvent(ProgressSnapshot)
			ev.SimTime = deadline
			ev.Events = ss.events
			ev.EventsPerSec = ss.rate(ss.events)
			agg := &StreamAgg{}
			for _, st := range shards {
				agg.Merge(st.agg)
				agg.Merge(st.obsAgg)
			}
			ev.Classes = agg
			ev.Uplinks = uplinkSnapshots(ports, owners)
			ss.emit(ev)
			for nextSnap <= deadline {
				nextSnap += window
			}
		}
		if n == 1 {
			cur = deadline
			continue
		}
		// Jump the next window's start over the idle gap: the earliest
		// pending event or undelivered handoff anywhere. The width
		// stays la, so causality is untouched — only dead windows are
		// skipped.
		for i := range pendingH {
			if at, ok := pendingH[i].Next(); ok && (!hasNext || at < next) {
				next, hasNext = at, true
			}
		}
		if !hasNext {
			endTime = maxT
			break
		}
		if next <= deadline {
			next = deadline + 1
		}
		cur = next
	}
	stopWorkers()

	// Completions from the final window: close and fold on the
	// coordinator — the workers are joined, so this is single-threaded.
	for i, st := range shards {
		cs := pendingC[i]
		sortCloses(cs)
		st.applyCloses(cs, false)
	}

	res := &Result{
		Scenario:       sc.Name,
		Scheme:         sc.SchemeName,
		ShortThreshold: sc.ShortThreshold,
		EndTime:        endTime,
	}
	if sc.CollectTimeSeries {
		w := sc.TimeBucket.Seconds()
		res.ShortQueueDelayUs = stats.NewTimeSeries(w)
		res.ShortOOORatio = stats.NewTimeSeries(w)
		res.LongOOORatio = stats.NewTimeSeries(w)
		res.ShortGoodputBytes = stats.NewTimeSeries(w)
		res.LongGoodputBytes = stats.NewTimeSeries(w)
	}

	owner := shards[0].hostOwner
	var opens []openRec
	if sc.StreamStats {
		// Shard 0's own aggregate is the result (merging it into an
		// empty one would be exact, so this is the same reduction).
		res.Stream = shards[0].agg
		for _, st := range shards[1:] {
			res.Stream.Merge(st.agg)
		}
		// Unfinished flows: sweep still-open senders in global host
		// order, grafting the live receiver half of cross-shard flows
		// before folding.
		for h := range owner {
			st := shards[owner[h]]
			st.hosts[h].EachOpenSenderSorted(func(snd *transport.Sender) {
				fs := snd.Stats
				if dst := shards[owner[fs.ID.Dst]]; dst != st {
					addRecvHalf(&fs, dst.rstats[fs.ID.Port])
				}
				res.Stream.Fold(&fs, fs.Size <= sc.ShortThreshold, endTime)
			})
		}
	} else {
		// Record mode: Flows in open order. A lone shard's log is that
		// order already; several logs merge by (start, index).
		for _, st := range shards {
			opens = append(opens, st.openLog...)
		}
		if n > 1 {
			sort.SliceStable(opens, func(a, b int) bool {
				if opens[a].start != opens[b].start {
					return opens[a].start < opens[b].start
				}
				return opens[a].idx < opens[b].idx
			})
		}
		for i := range opens {
			r := &opens[i]
			fs := r.stats
			if r.cross {
				dst := shards[owner[fs.ID.Dst]]
				merged := *fs
				if fin, ok := dst.rFinal[r.idx]; ok {
					addRecvHalf(&merged, &fin)
				} else {
					addRecvHalf(&merged, dst.rstats[r.idx])
				}
				fs = &merged
			}
			res.Flows = append(res.Flows, fs)
		}
	}

	replaySamples(sc, res, shards, endTime)
	replayGoodput(sc, res, shards, opens, endTime)

	for _, st := range shards {
		res.Drops += st.net.Drops()
		st.net.EveryOwnedQueue(st.part, st.id, func(_ string, q *netem.Queue) {
			res.FaultDrops += q.Stats().FaultDropped
		})
	}
	res.Uplinks = uplinkSnapshots(ports, owners)
	return res, nil
}

// uplinkSnapshots copies the current totals of the balanced (uplink)
// ports in their global order, each from the shard that owns it.
// Mid-run snapshots read the counters at a barrier, where every engine
// is parked.
func uplinkSnapshots(ports [][]*netem.Port, owners []int) []PortSnapshot {
	out := make([]PortSnapshot, 0, len(owners))
	for i, o := range owners {
		p := ports[o][i]
		out = append(out, PortSnapshot{
			Label:    p.Label(),
			BusyTime: p.BusyTime(),
			Queue:    p.Queue().Stats(),
			Link:     p.Link(),
		})
	}
	return out
}

// buildShard constructs one shard's complete private copy of the
// simulation — engine, network, hosts, pool — and binds its boundary
// ports. The returned lookahead is the minimum propagation delay over
// all boundary links (0 when the partition collapsed to one shard).
func buildShard(sc *Scenario, id int) (*shardState, units.Time, error) {
	st := &shardState{id: id, sc: sc}
	st.sim = eventsim.New()
	rng := eventsim.NewRNG(sc.Seed)
	// One packet pool per shard: endpoints allocate from it, and the
	// hosts (delivery) and fabric (drops) release back to it, making
	// the steady-state packet path allocation-free. Per-shard ownership
	// keeps shards and parallel sweep workers from sharing any mutable
	// state.
	pool := netem.NewPacketPool()
	st.cfg = sc.Transport
	st.cfg.Pool = pool

	deliver := func(host int, pkt *netem.Packet) { st.hosts[host].Receive(pkt) }
	var (
		net topology.Network
		err error
	)
	if sc.BuildNetwork != nil {
		net, err = sc.BuildNetwork(st.sim, sc.Balancer, rng.Split(), deliver)
	} else {
		net, err = topology.New(st.sim, sc.Topology, sc.Balancer, rng.Split(), deliver)
	}
	if err != nil {
		return nil, 0, fmt.Errorf("sim: scenario %q: %w", sc.Name, err)
	}
	st.net = net
	st.part = net.NewPartition(sc.Shards)
	la := net.ShardBind(st.part, id, func(h topology.Handoff) {
		st.outHandoffs = append(st.outHandoffs, h)
	})
	st.applyFn = func(arg any) { st.net.ApplyHandoff(arg.(*topology.Handoff)) }

	if len(sc.Faults) > 0 {
		fab, ok := net.(*topology.Fabric)
		if !ok {
			return nil, 0, fmt.Errorf("sim: scenario %q: fault schedule requires the leaf-spine fabric", sc.Name)
		}
		// Every shard installs the FULL schedule, filtered to the
		// directed ports it owns — so each directed port is faulted by
		// exactly the shard that runs its events, at the exact times.
		resolve := func(leaf, spine int) (*netem.Port, *netem.Port, error) {
			up, down, err := fab.LinkPorts(leaf, spine)
			if err != nil {
				return nil, nil, err
			}
			upO, downO := fab.LinkOwners(st.part, leaf, spine)
			if upO != id {
				up = nil
			}
			if downO != id {
				down = nil
			}
			return up, down, nil
		}
		if _, err := faults.Install(st.sim, sc.Faults, resolve, sc.Tracer); err != nil {
			return nil, 0, fmt.Errorf("sim: scenario %q: %w", sc.Name, err)
		}
	}

	net.SetPool(pool)
	st.hosts = make([]*transport.Host, net.Hosts())
	for h := range st.hosts {
		host := h
		st.hosts[h] = transport.NewHost(st.sim, h, func(pkt *netem.Packet) { net.Inject(host, pkt) })
		st.hosts[h].SetPool(pool)
	}
	st.hostOwner = make([]int, net.Hosts())
	for h := range st.hostOwner {
		st.hostOwner[h] = net.HostOwner(st.part, h)
	}
	st.rstats = make(map[int]*transport.FlowStats)
	if sc.StreamStats {
		st.agg = &StreamAgg{}
	} else {
		st.rFinal = make(map[int]transport.FlowStats)
	}
	return st, la, nil
}

// teardownLag returns the flow-teardown latency for a run on net: how
// long after a sender's completion its receiver is torn down. Teardown
// is modelled as a finite-latency event because an instantaneous close
// would be a zero-latency cross-shard influence — a retransmission
// still in flight when the sender finishes would be consumed by a
// multi-shard run (receiver open until the next barrier) but discarded
// by a one-shard run (receiver closed synchronously), and the extra
// duplicate ACK perturbs every downstream per-packet RNG draw. Using
// the minimum boundary-capable link delay — tightened by any
// fault-scheduled delay override, exactly like the lookahead — makes
// the lag (a) a pure function of scenario and topology, so every shard
// count schedules the identical close event, and (b) at least as large
// as the synchronization window, so a completion crossing a barrier
// can always still schedule its close in the future. A network without
// delayed fabric links returns 0, which keeps the synchronous close
// (and cannot shard).
func teardownLag(net topology.Network, sched faults.Schedule) units.Time {
	lag := net.MinFabricDelay()
	if lag <= 0 {
		return 0
	}
	for _, ev := range sched {
		if ev.Op == faults.OpDelay && ev.Delay < lag {
			lag = ev.Delay
		}
	}
	return lag
}

// closeReceiver tears down a flow's receiving endpoint at its sender's
// completion: deferred by the teardown lag (see teardownLag), or
// synchronous where no lag is defined.
func closeReceiver(h *transport.Host, done, lag units.Time, id netem.FlowID) {
	if lag > 0 {
		h.CloseReceiverAt(done, lag, id)
	} else {
		h.CloseReceiver(id)
	}
}

// checkFlow rejects a flow whose endpoints are not two distinct hosts.
func checkFlow(i int, f workload.Flow, hosts int) error {
	if f.Src == f.Dst || f.Src < 0 || f.Src >= hosts || f.Dst < 0 || f.Dst >= hosts {
		return fmt.Errorf("sim: flow %d has invalid endpoints %d->%d", i, f.Src, f.Dst)
	}
	return nil
}

// scheduleFlows arms this shard's share of the workload. Every flow
// keeps its global index; a shard schedules open events only for
// flows with an endpoint it owns, and counts toward remaining only
// those whose sender it owns (completion is decided where the sender
// lives). With a lazy workload every shard pumps its own full source
// copy — sources are pure functions of spec and seed — so indices and
// arrival times agree across shards by construction.
func (st *shardState) scheduleFlows() error {
	sc := st.sc
	for i, f := range sc.Flows {
		if err := checkFlow(i, f, len(st.hosts)); err != nil {
			return err
		}
		if st.hostOwner[f.Src] != st.id && st.hostOwner[f.Dst] != st.id {
			continue
		}
		if st.hostOwner[f.Src] == st.id {
			st.remaining++
		}
		if sc.Replication != nil && sc.Replication.Copies > 1 && f.Size <= sc.Replication.Threshold {
			st.openReplicated(i, f)
			continue
		}
		i, f := i, f
		st.sim.At(f.Start, func() { st.openFlow(i, f) })
	}
	st.drained = sc.FlowSourceNew == nil
	if sc.FlowSourceNew != nil {
		st.src = sc.FlowSourceNew()
		var pump func(i int, f workload.Flow)
		pump = func(i int, f workload.Flow) {
			if err := checkFlow(i, f, len(st.hosts)); err != nil {
				st.fail(err)
				return
			}
			if f.Start < st.sim.Now() {
				st.fail(fmt.Errorf("sim: FlowSourceNew went backwards: flow %d starts at %v, now %v", i, f.Start, st.sim.Now()))
				return
			}
			if st.hostOwner[f.Src] == st.id {
				st.remaining++
			}
			st.sim.At(f.Start, func() {
				st.openFlow(i, f)
				if nf, ok := st.src.Next(); ok {
					pump(i+1, nf)
				} else {
					st.drained = true
				}
			})
		}
		if f, ok := st.src.Next(); ok {
			pump(0, f)
		} else {
			return fmt.Errorf("sim: scenario %q: FlowSourceNew yielded no flows", sc.Name)
		}
	}
	return nil
}

// fail records the first error and stops the current window early.
func (st *shardState) fail(err error) {
	if st.err == nil {
		st.err = err
	}
	st.sim.Stop()
}

// flowDone is the shard-local part of every completion. Only a lone
// shard stops itself (selfStop); otherwise the coordinator owns the
// stop decision at the next barrier.
func (st *shardState) flowDone() {
	st.remaining--
	st.done++
	if now := st.sim.Now(); now > st.lastDone {
		st.lastDone = now
	}
	if st.selfStop && st.remaining == 0 && st.drained {
		st.sim.Stop()
	}
}

// openFlow opens the endpoints this shard owns for one flow.
func (st *shardState) openFlow(i int, f workload.Flow) {
	sc := st.sc
	id := netem.FlowID{Src: f.Src, Dst: f.Dst, Port: i}
	short := f.Size <= sc.ShortThreshold
	srcHere := st.hostOwner[f.Src] == st.id
	dstHere := st.hostOwner[f.Dst] == st.id
	switch {
	case srcHere && dstHere:
		// Shard-local flow: shared record, deferred keyed close and
		// synchronous fold.
		snd := st.hosts[f.Src].OpenSender(st.cfg, id, f.Size, func(done *transport.Sender) {
			closeReceiver(st.hosts[f.Dst], st.sim.Now(), st.closeLag, id)
			if sc.Tracer != nil {
				sc.Tracer.Record(trace.Event{
					At: st.sim.Now(), Kind: trace.FlowEnd, Flow: id,
					Note: fmt.Sprintf("fct=%v retx=%d", done.Stats.FCT(), done.Stats.Retransmits),
				})
			}
			if st.agg != nil {
				st.agg.Fold(&done.Stats, short, st.sim.Now())
			}
			if st.obsAgg != nil {
				st.obsAgg.Fold(&done.Stats, short, st.sim.Now())
			}
			st.flowDone()
		})
		snd.Stats.Deadline = f.Deadline
		recv := st.hosts[f.Dst].OpenReceiver(st.cfg, id, f.Size, &snd.Stats)
		st.hookSamples(recv, short)
		st.logOpen(i, short, false, &snd.Stats)
		if sc.Tracer != nil {
			sc.Tracer.Record(trace.Event{At: st.sim.Now(), Kind: trace.FlowStart, Flow: id, Note: f.Size.String()})
		}
		st.started++
		snd.Start()
	case srcHere:
		// Sender half of a cross-shard flow: completion travels to the
		// receiver's shard as a closeMsg, applied at the next barrier.
		dst := int32(st.hostOwner[f.Dst])
		snd := st.hosts[f.Src].OpenSender(st.cfg, id, f.Size, func(done *transport.Sender) {
			st.outDones = append(st.outDones, closeMsg{
				idx: i, dstShard: dst, at: st.sim.Now(), short: short, sender: done.Stats,
			})
			st.flowDone()
		})
		snd.Stats.Deadline = f.Deadline
		st.logOpen(i, short, true, &snd.Stats)
		st.started++
		snd.Start()
	case dstHere:
		// Receiver half: a fresh record only the receiver writes,
		// merged with the sender half at close (or end of run).
		rs := &transport.FlowStats{ID: id, Size: f.Size, Deadline: f.Deadline}
		st.rstats[i] = rs
		recv := st.hosts[f.Dst].OpenReceiver(st.cfg, id, f.Size, rs)
		st.hookSamples(recv, short)
	}
}

// openReplicated realizes flow idx as N racing copies (RepFlow) with
// distinct five-tuples; the flow's record is the first copy to finish.
// The losers keep draining but are otherwise ignored. Replication runs
// on one shard only, so both endpoints are local. The canonical record
// is logged now, ahead of every flow opened during the run.
func (st *shardState) openReplicated(idx int, f workload.Flow) {
	sc := st.sc
	canonicalID := netem.FlowID{Src: f.Src, Dst: f.Dst, Port: idx}
	canonical := &transport.FlowStats{ID: canonicalID, Size: f.Size, Deadline: f.Deadline}
	short := f.Size <= sc.ShortThreshold
	st.openLog = append(st.openLog, openRec{idx: idx, start: f.Start, short: short, stats: canonical})
	won := false
	copies := sc.Replication.Copies
	st.sim.At(f.Start, func() {
		for c := 0; c < copies; c++ {
			// Distinct Port per copy: per-flow schemes (ECMP, WCMP,
			// Presto, ...) hash the copies independently.
			id := netem.FlowID{Src: f.Src, Dst: f.Dst, Port: idx + (c+1)<<24}
			recvHost := st.hosts[f.Dst]
			snd := st.hosts[f.Src].OpenSender(st.cfg, id, f.Size, func(done *transport.Sender) {
				closeReceiver(recvHost, st.sim.Now(), st.closeLag, id)
				if won {
					return
				}
				won = true
				// The winner's record becomes the flow's record.
				*canonical = done.Stats
				canonical.ID = canonicalID
				canonical.Deadline = f.Deadline
				if sc.Tracer != nil {
					sc.Tracer.Record(trace.Event{
						At: st.sim.Now(), Kind: trace.FlowEnd, Flow: canonicalID,
						Note: fmt.Sprintf("repflow winner fct=%v", done.Stats.FCT()),
					})
				}
				if st.obsAgg != nil {
					st.obsAgg.Fold(canonical, short, st.sim.Now())
				}
				st.flowDone()
			})
			snd.Stats.Deadline = f.Deadline
			recvHost.OpenReceiver(st.cfg, id, f.Size, &snd.Stats)
			snd.Start()
		}
		if sc.Tracer != nil {
			sc.Tracer.Record(trace.Event{
				At: st.sim.Now(), Kind: trace.FlowStart, Flow: canonicalID,
				Note: fmt.Sprintf("%v x%d replicas", f.Size, copies),
			})
		}
		st.started++
	})
}

// logOpen records a sender-owned open (record mode only — streaming
// runs retain no per-flow state).
func (st *shardState) logOpen(idx int, short, cross bool, fs *transport.FlowStats) {
	if st.agg != nil {
		return
	}
	st.openLog = append(st.openLog, openRec{
		idx: idx, start: st.sim.Now(), short: short, cross: cross, stats: fs,
	})
}

// hookSamples wires the receiver's per-packet sample hook into the
// shard-local log: short-flow packets when SampleShortPackets, every
// packet when CollectTimeSeries.
func (st *shardState) hookSamples(recv *transport.Receiver, short bool) {
	sc := st.sc
	if !(sc.SampleShortPackets && short) && !sc.CollectTimeSeries {
		return
	}
	recv.Sample = func(ps transport.PacketSample) {
		st.samples = append(st.samples, sampleRec{ps: ps, short: short})
	}
}

// installTicker arms the per-shard goodput sampler: once per time
// bucket it logs each flow's acked-byte progress (per-packet samples
// carry no size). The deltas are replayed in a sorted merge after the
// run rather than added to the series directly.
func (st *shardState) installTicker() {
	period := st.sc.TimeBucket
	var tick func()
	tick = func() {
		st.sampleGoodput()
		st.sim.After(period, tick)
	}
	st.sim.After(period, tick)
}

// sampleGoodput logs each owned flow's acked-byte delta since its
// last tick, in open order.
func (st *shardState) sampleGoodput() {
	now := st.sim.Now()
	for j := range st.openLog {
		r := &st.openLog[j]
		d := r.stats.BytesAcked - r.last
		if d <= 0 {
			continue
		}
		r.last = r.stats.BytesAcked
		st.ticks = append(st.ticks, tickRec{at: now, idx: int32(r.idx), short: r.short, delta: d})
	}
}

// serve is the shard goroutine: one epoch per work order until the
// channel closes. All shard state is private to this goroutine while
// it runs; the channel pair is the only synchronization.
func (st *shardState) serve(in <-chan shardEpochIn, out chan<- shardEpochOut, wg *sync.WaitGroup) {
	defer wg.Done()
	for ep := range in {
		out <- st.runEpoch(ep)
	}
}

// runEpoch applies the barrier's messages, runs the window, and
// reports. Each handoff is scheduled with the same DeliveryKey its
// source port used, so it fires at exactly the position — relative to
// this shard's local same-instant deliveries — that a one-shard run
// fires the original delivery at.
func (st *shardState) runEpoch(ep shardEpochIn) shardEpochOut {
	// The coordinator copied last window's reports out before sending
	// this work order.
	st.outHandoffs = st.outHandoffs[:0]
	st.outDones = st.outDones[:0]
	st.applyCloses(ep.closes, true)
	for i := range ep.handoffs {
		h := &ep.handoffs[i]
		st.sim.AtKey(h.DeliverAt, netem.DeliveryKey(h.AdmittedAt, h.SrcPort), st.applyFn, h)
	}
	st.sim.RunUntil(ep.deadline)
	o := shardEpochOut{
		handoffs:  st.outHandoffs,
		dones:     st.outDones,
		remaining: st.remaining,
		drained:   st.drained,
		lastDone:  st.lastDone,
		err:       st.err,
	}
	o.nextAt, o.hasNext = st.sim.NextEventAt()
	return o
}

// applyCloses handles the receiver halves of cross-shard flows whose
// senders completed elsewhere, in the barrier's deterministic order.
// The stats merge happens here — safe at any point at or after
// completion, because the receiver froze its half of the record the
// moment all payload arrived — but the teardown itself is re-created
// as the keyed engine event a shard-local flow schedules at the
// sender's done callback: at completion + lag, keyed by (completion,
// host). The lag is no smaller than the window width, so an event
// scheduled from the barrier after the completion's window is never in
// the past. With schedule false (the post-join sweep, engines stopped)
// the receiver is dropped directly.
func (st *shardState) applyCloses(closes []closeMsg, schedule bool) {
	for i := range closes {
		c := &closes[i]
		id := c.sender.ID
		if schedule {
			st.hosts[id.Dst].CloseReceiverAt(c.at, st.closeLag, id)
		} else {
			st.hosts[id.Dst].CloseReceiver(id)
		}
		rs := st.rstats[c.idx]
		delete(st.rstats, c.idx)
		if st.agg != nil || st.obsAgg != nil {
			merged := c.sender
			addRecvHalf(&merged, rs)
			if st.agg != nil {
				st.agg.Fold(&merged, c.short, c.at)
			}
			if st.obsAgg != nil {
				st.obsAgg.Fold(&merged, c.short, c.at)
			}
		}
		if st.agg == nil && rs != nil {
			st.rFinal[c.idx] = *rs
		}
	}
}

// addRecvHalf grafts the receiver-side counters of src onto dst: the
// two halves of a cross-shard flow are written by disjoint shards, so
// the merge is plain assignment.
func addRecvHalf(dst, src *transport.FlowStats) {
	if src == nil {
		return
	}
	dst.SumQueueDelay = src.SumQueueDelay
	dst.PacketsRecv = src.PacketsRecv
	dst.OutOfOrder = src.OutOfOrder
	dst.DupAcksSent = src.DupAcksSent
	dst.SumPktDelay = src.SumPktDelay
	dst.DelaySamples = src.DelaySamples
}

// replaySamples merges the per-shard packet-sample logs and feeds the
// retained-sample slice and the receiver-side time series, in (time,
// receiving host) order. The time-series bucket sums are
// floating-point and therefore order-sensitive: same-instant samples
// at different hosts arrive in engine delivery order on one shard but
// are logged per shard when there are several, so a canonical replay
// order is the only way the sums come out bit-identical. Two samples
// can never tie on (time, host): a host's last hop is one FIFO port,
// which separates its deliveries in time.
func replaySamples(sc *Scenario, res *Result, shards []*shardState, endTime units.Time) {
	if !sc.SampleShortPackets && !sc.CollectTimeSeries {
		return
	}
	var recs []sampleRec
	for _, st := range shards {
		recs = append(recs, st.samples...)
	}
	sort.SliceStable(recs, func(a, b int) bool {
		if recs[a].ps.At != recs[b].ps.At {
			return recs[a].ps.At < recs[b].ps.At
		}
		return recs[a].ps.Flow.Dst < recs[b].ps.Flow.Dst
	})
	for i := range recs {
		r := &recs[i]
		if r.ps.At > endTime {
			continue
		}
		if sc.SampleShortPackets && r.short {
			res.ShortSamples = append(res.ShortSamples, r.ps)
		}
		if !sc.CollectTimeSeries {
			continue
		}
		at := r.ps.At.Seconds()
		ooo := 0.0
		if r.ps.OutOfOrder {
			ooo = 1
		}
		if r.short {
			res.ShortQueueDelayUs.Add(at, r.ps.QueueDelay.Micros())
			res.ShortOOORatio.Add(at, ooo)
		} else {
			res.LongOOORatio.Add(at, ooo)
		}
	}
}

// replayGoodput merges the per-shard goodput tick logs — ordered by
// tick time, then the flows' global open order within a tick, which
// is a one-shard sampler's iteration order — and applies the final
// flush at EndTime (completion can land between ticks).
func replayGoodput(sc *Scenario, res *Result, shards []*shardState, opens []openRec, endTime units.Time) {
	if !sc.CollectTimeSeries {
		return
	}
	rank := make(map[int32]int, len(opens))
	for i := range opens {
		rank[int32(opens[i].idx)] = i
	}
	var ticks []tickRec
	for _, st := range shards {
		ticks = append(ticks, st.ticks...)
	}
	sort.SliceStable(ticks, func(a, b int) bool {
		if ticks[a].at != ticks[b].at {
			return ticks[a].at < ticks[b].at
		}
		return rank[ticks[a].idx] < rank[ticks[b].idx]
	})
	applied := make(map[int32]units.Bytes, len(opens))
	for i := range ticks {
		t := &ticks[i]
		if t.at > endTime {
			continue
		}
		applied[t.idx] += t.delta
		if t.short {
			res.ShortGoodputBytes.Add(t.at.Seconds(), float64(t.delta))
		} else {
			res.LongGoodputBytes.Add(t.at.Seconds(), float64(t.delta))
		}
	}
	at := endTime.Seconds()
	for i := range opens {
		r := &opens[i]
		if d := r.stats.BytesAcked - applied[int32(r.idx)]; d > 0 {
			if r.short {
				res.ShortGoodputBytes.Add(at, float64(d))
			} else {
				res.LongGoodputBytes.Add(at, float64(d))
			}
		}
	}
}

// sortCloses orders one epoch's completion messages deterministically.
// (at, idx) is unique — a flow completes once — so the sort needs no
// stability, and the generic sort allocates nothing.
func sortCloses(cs []closeMsg) {
	slices.SortFunc(cs, func(a, b closeMsg) int {
		if c := cmp.Compare(a.at, b.at); c != 0 {
			return c
		}
		return cmp.Compare(a.idx, b.idx)
	})
}
