// Allocation gates: these tests pin the zero-allocation contract of
// the engine hot path (DESIGN.md "Engine performance"). They are part
// of the ordinary test suite, so `go test ./...` and `make ci` fail if
// a change reintroduces per-event or per-packet allocation.
package tlb_test

import (
	"encoding/json"
	"runtime"
	"testing"

	"tlb/internal/eventsim"
	"tlb/internal/netem"
	"tlb/internal/sim"
	"tlb/internal/spec"
	"tlb/internal/topology"
	"tlb/internal/units"

	// The sharded-run gate's spec names a registered scheme.
	_ "tlb/internal/core"
)

// TestAllocGateEventScheduleCancel: a steady-state At+Cancel cycle —
// the pattern every transport timer re-arm executes — must not
// allocate once the event freelist is warm.
func TestAllocGateEventScheduleCancel(t *testing.T) {
	s := eventsim.New()
	fn := func() {}
	cycle := func() { s.Cancel(s.At(s.Now()+1, fn)) }
	for i := 0; i < 4096; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(5000, cycle); allocs != 0 {
		t.Fatalf("At+Cancel cycle allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestAllocGateEventScheduleFire: a steady-state At+fire cycle must
// not allocate either — firing releases the node back to the freelist
// the next At pops from.
func TestAllocGateEventScheduleFire(t *testing.T) {
	s := eventsim.New()
	fn := func() {}
	cycle := func() {
		s.At(s.Now()+1, fn)
		if !s.Step() {
			t.Fatal("nothing to step")
		}
	}
	for i := 0; i < 4096; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(5000, cycle); allocs != 0 {
		t.Fatalf("At+fire cycle allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestAllocGateFarFutureTimer: an At+Cancel cycle beyond the wheel
// horizon — the RTO-timer pattern, which lands in the calendar queue's
// spill heap rather than a wheel slot — must not allocate either.
func TestAllocGateFarFutureTimer(t *testing.T) {
	s := eventsim.New()
	fn := func() {}
	const far = 50 * units.Millisecond // >> the ~1 ms wheel horizon
	cycle := func() { s.Cancel(s.At(s.Now()+far, fn)) }
	for i := 0; i < 4096; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(5000, cycle); allocs != 0 {
		t.Fatalf("far-future At+Cancel cycle allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestAllocGateSameTickBatch: scheduling a burst at one instant and
// draining it through RunUntil's batched same-timestamp dispatch must
// not allocate in steady state.
func TestAllocGateSameTickBatch(t *testing.T) {
	s := eventsim.New()
	fn := func() {}
	burst := func() {
		at := s.Now() + 1
		for i := 0; i < 16; i++ {
			s.At(at, fn)
		}
		s.RunUntil(at)
	}
	for i := 0; i < 1024; i++ {
		burst()
	}
	if allocs := testing.AllocsPerRun(2000, burst); allocs != 0 {
		t.Fatalf("same-tick batch drain allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestAllocGateAtArg: the closure-free (fn, arg) scheduling variant
// with a pointer-typed argument must not allocate in steady state
// (this is the Port delivery path).
func TestAllocGateAtArg(t *testing.T) {
	s := eventsim.New()
	type payload struct{ n int }
	arg := &payload{}
	fn := func(a any) { a.(*payload).n++ }
	cycle := func() {
		s.AtArg(s.Now()+1, fn, arg)
		if !s.Step() {
			t.Fatal("nothing to step")
		}
	}
	for i := 0; i < 4096; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(5000, cycle); allocs != 0 {
		t.Fatalf("AtArg+fire cycle allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestAllocGatePortTransit: the full per-packet path — pool Get,
// Port.Send (queue admission + delivery scheduling), serialization,
// delivery, pool release — must be allocation-free in steady state.
func TestAllocGatePortTransit(t *testing.T) {
	s := eventsim.New()
	pool := netem.NewPacketPool()
	p := netem.NewPort(s,
		netem.LinkConfig{Bandwidth: units.Gbps, Delay: 10 * units.Microsecond},
		netem.QueueConfig{Capacity: 1 << 20},
		func(pkt *netem.Packet) { pool.Put(pkt) }, "gate")
	transit := func() {
		pkt := pool.Get()
		pkt.Flow = netem.FlowID{Src: 1, Dst: 2}
		pkt.Kind = netem.Data
		pkt.Payload = 1460
		pkt.Wire = 1500
		if !p.Send(pkt) {
			t.Fatal("send refused")
		}
		s.Run()
	}
	for i := 0; i < 4096; i++ {
		transit()
	}
	if allocs := testing.AllocsPerRun(2000, transit); allocs != 0 {
		t.Fatalf("steady-state port transit allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestAllocGatePortTransitPipelined covers the burst shape the real
// fabric produces — many packets admitted before the drain runs — so
// the queue ring and heap exercise depth > 1.
func TestAllocGatePortTransitPipelined(t *testing.T) {
	s := eventsim.New()
	pool := netem.NewPacketPool()
	p := netem.NewPort(s,
		netem.LinkConfig{Bandwidth: units.Gbps, Delay: 10 * units.Microsecond},
		netem.QueueConfig{Capacity: 1 << 20},
		func(pkt *netem.Packet) { pool.Put(pkt) }, "gate")
	burst := func() {
		for i := 0; i < 64; i++ {
			pkt := pool.Get()
			pkt.Flow = netem.FlowID{Src: 1, Dst: 2}
			pkt.Kind = netem.Data
			pkt.Payload = 1460
			pkt.Wire = 1500
			if !p.Send(pkt) {
				t.Fatal("send refused")
			}
		}
		s.Run()
	}
	for i := 0; i < 256; i++ {
		burst()
	}
	if allocs := testing.AllocsPerRun(500, burst); allocs != 0 {
		t.Fatalf("steady-state 64-deep transit burst allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestAllocGateHandoffHeap: the sharded runner's barrier exchange —
// push each window's emitted handoffs into the destination's pending
// heap, pop the due ones into a reused buffer — must not allocate once
// the heap and buffer have grown to the in-flight peak.
func TestAllocGateHandoffHeap(t *testing.T) {
	var (
		h   topology.HandoffHeap
		due []topology.Handoff
		now units.Time
	)
	x := topology.Handoff{Pkt: netem.Packet{Kind: netem.Data, Payload: 1460, Wire: 1500}}
	window := func() {
		// 24 handoffs spread over the next three windows, out of order
		// and with delivery-time ties, then the due ones of this window.
		for i := 0; i < 24; i++ {
			x.DeliverAt = now + 1 + units.Time(i*7%30)
			x.AdmittedAt = now - units.Time(i%3)
			x.SrcPort = uint32(i % 5)
			h.Push(&x)
		}
		now += 10
		due = h.PopDue(due[:0], now)
	}
	for i := 0; i < 256; i++ {
		window()
	}
	if allocs := testing.AllocsPerRun(2000, window); allocs != 0 {
		t.Fatalf("steady-state handoff push/PopDue allocates %.1f allocs/op, want 0", allocs)
	}
}

// shardGateSpec is a small inter-pod fat-tree run: mice under
// streamed stats, so beyond construction nearly all of a sharded
// run's extra allocation would be the barrier exchange's.
const shardGateSpec = `{
  "version": 1, "name": "alloc-gate-shards", "seed": 7,
  "scheme": {"name": "ecmp"},
  "topology": {"kind": "fattree", "k": 8,
    "hostLink": {"bandwidth": "1Gbps", "delay": "5us"},
    "fabricLink": {"bandwidth": "1Gbps", "delay": "10us"},
    "queue": {"capacity": 256, "ecnThreshold": 65}},
  "workload": {"kind": "interpod", "interPod": {"flows": 4000,
    "sizes": {"kind": "uniform", "min": "2KB", "max": "32KB"},
    "maxGap": "1200ns"}},
  "run": {"maxTime": "1s", "stopWhenDone": true},
  "outputs": {"streamStats": true}
}`

// TestAllocGateShardedExchange: a 2-shard run may allocate at most
// twice what the same scenario allocates on one engine. Each shard
// builds its own network copy, so some excess is inherent; a barrier
// exchange that re-allocates its pending handoffs every window blows
// far past the bound (about 75x on this scenario).
func TestAllocGateShardedExchange(t *testing.T) {
	var sp spec.Spec
	if err := json.Unmarshal([]byte(shardGateSpec), &sp); err != nil {
		t.Fatal(err)
	}
	run := func(shards int) uint64 {
		sc, err := sp.Compile()
		if err != nil {
			t.Fatal(err)
		}
		sc.Shards = shards
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := sim.Run(sc)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.CompletedCount(sim.AllFlows); got != 4000 {
			t.Fatalf("shards=%d: %d flows completed, want 4000", shards, got)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	single := run(1)
	sharded := run(2)
	ratio := float64(sharded) / float64(single)
	t.Logf("TotalAlloc: one engine %.1f MB, 2 shards %.1f MB (%.2fx)", float64(single)/1e6, float64(sharded)/1e6, ratio)
	if ratio > 2 {
		t.Fatalf("2-shard run allocates %.2fx the one-engine run (%d vs %d bytes), want at most 2x", ratio, sharded, single)
	}
}
