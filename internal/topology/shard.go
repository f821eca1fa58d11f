package topology

import (
	"tlb/internal/netem"
	"tlb/internal/units"
)

// This file is the topology half of the sharded runner (internal/sim):
// partitioning a network into per-shard event partitions and capturing
// the packets that cross between them.
//
// The partition follows the physical hierarchy. On a leaf-spine fabric
// each shard owns a contiguous group of leaves (with their hosts and
// host links) plus a contiguous group of spines; every leaf<->spine
// link whose two ends land in different shards is a *boundary link*.
// On a fat-tree each shard owns a contiguous group of pods (edge and
// aggregation tiers are intra-pod, so they shard with their pod) plus
// a contiguous group of cores, and the agg<->core links are the only
// possible boundaries. Host<->switch links never cross a shard, so
// transport endpoints are always shard-local.
//
// A directed boundary link is owned by its *egress* side: the shard
// that owns the sending switch runs the port's queue, serialization
// and delivery events exactly as an unsharded run would (admission
// stats, ECN marks, drops and busy time stay byte-identical), while
// the packet itself crosses as a Handoff value (netem.Port.SetBoundary
// captures it at admission, after all admission-time mutations). The
// ingress shard materializes the copy from its own pool and dispatches
// it into the receiving switch — pool ownership never crosses a
// goroutine.
//
// The minimum propagation delay over all boundary links is the
// conservative lookahead: a packet admitted at time t cannot arrive in
// another shard before t + minDelay, so shards may run minDelay ahead
// of each other without ever receiving a handoff in their past.

// Handoff is one captured boundary crossing: a packet value plus the
// coordinates needed to (a) order it deterministically and (b)
// dispatch it into the destination shard's copy of the network.
type Handoff struct {
	// DeliverAt is the far-end arrival time computed by the egress
	// port at admission (finish + propagation delay).
	DeliverAt units.Time
	// AdmittedAt is when the egress port admitted the packet: the high
	// bits of its netem.DeliveryKey. Every engine — global or
	// per-shard — orders simultaneous deliveries by (AdmittedAt,
	// SrcPort), so scheduling the handoff in the destination engine
	// with the same key lands it at exactly the position the unsharded
	// run fires the delivery.
	AdmittedAt units.Time
	// SrcPort is the emitting port's construction-order index
	// (netem.Port.Index): the low bits of its DeliveryKey.
	// Partition-invariant because every shard builds the full topology
	// in the same order.
	SrcPort uint32
	// DstShard is the shard owning the ingress switch.
	DstShard int32
	// Entry locates the ingress dispatch point: the receiving spine
	// (Up) or leaf (!Up) on a leaf-spine fabric; the receiving core
	// (Up) or aggregation switch (!Up) on a fat-tree.
	Entry int32
	// Up is the crossing direction: toward the spine/core tier or back
	// down from it.
	Up bool
	// Pkt is the packet by value. pooled is false in the copy, so the
	// destination shard can overwrite a fresh pool packet with it.
	//simlint:allow packetown(whole-value copy captured at admission; the pool-owned original never leaves its shard)
	Pkt netem.Packet
}

// HandoffBefore is the deterministic application order for handoffs
// arriving at one shard: delivery time, then (admission time, source
// port index) — exactly the engine's keyed-domain delivery order,
// since a DeliveryKey is AdmittedAt over SrcPort. The sharded runner
// keeps each shard's pending handoffs in a heap under this order and
// schedules every epoch's due ones in it, so the destination shard's
// event order is a pure function of the traffic, not of shard count.
//
// The order is total over real handoffs: no two share (DeliverAt,
// SrcPort), let alone all three keys. One port's deliveries are
// strictly increasing in time: each packet finishes serializing at
// least 1 ns after the previous one (a positive wire size rounds up
// to a TxTime of at least 1 ns), and netem.Port.SetLink floors the
// next finish so a propagation-delay cut cannot pull a delivery back
// to or before an earlier one. So an unstable heap yields exactly the
// stable sort's order.
func HandoffBefore(a, b *Handoff) bool {
	if a.DeliverAt != b.DeliverAt {
		return a.DeliverAt < b.DeliverAt
	}
	if a.AdmittedAt != b.AdmittedAt {
		return a.AdmittedAt < b.AdmittedAt
	}
	return a.SrcPort < b.SrcPort
}

// HandoffHeap is one destination shard's pending handoffs: a binary
// min-heap in HandoffBefore order. It is hand-rolled over the value
// slice because container/heap boxes every pushed and popped value
// through its any-typed interface. Once the backing array has grown to
// the run's peak in-flight count, Push and PopDue allocate nothing.
// Sifts move a hole instead of swapping, so each level costs one
// Handoff copy. The zero value is an empty heap.
type HandoffHeap []Handoff

// Push adds one handoff.
func (h *HandoffHeap) Push(x *Handoff) {
	s := append(*h, Handoff{})
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !HandoffBefore(x, &s[p]) {
			break
		}
		s[i] = s[p]
		i = p
	}
	s[i] = *x
	*h = s
}

// Next reports the earliest pending delivery time; ok is false when
// the heap is empty.
func (h HandoffHeap) Next() (at units.Time, ok bool) {
	if len(h) == 0 {
		return 0, false
	}
	return h[0].DeliverAt, true
}

// PopDue removes every handoff with DeliverAt ≤ deadline, appends them
// to dst in HandoffBefore order, and returns the extended slice.
func (h *HandoffHeap) PopDue(dst []Handoff, deadline units.Time) []Handoff {
	s := *h
	for len(s) > 0 && s[0].DeliverAt <= deadline {
		dst = append(dst, s[0])
		// Sift the last element down from the root's hole.
		n := len(s) - 1
		last := &s[n]
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && HandoffBefore(&s[r], &s[c]) {
				c = r
			}
			if !HandoffBefore(&s[c], last) {
				break
			}
			s[i] = s[c]
			i = c
		}
		s[i] = *last
		s = s[:n]
	}
	*h = s
	return dst
}

// Partition assigns every switch group of a network to a shard. It is
// a pure function of (topology config, shard count): every shard
// builds its own identical copy.
type Partition struct {
	// Shards is the effective shard count after clamping to the
	// topology's parallelism (leaf groups / pods).
	Shards int
	// groupOwner maps the host-carrying group (leaf; pod) to its shard.
	groupOwner []int
	// topOwner maps the top tier (spine; core) to its shard.
	topOwner []int
}

// contiguousOwners splits n groups over the given shard count in
// contiguous, balanced runs: group i goes to shard i*shards/n.
func contiguousOwners(n, shards int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i * shards / n
	}
	return out
}

// MinFabricDelay returns the minimum propagation delay over every
// inter-switch (boundary-capable) link of the network — the set a
// partition can ever cut, independent of any particular partition or
// shard count. The runner derives the flow-teardown lag from it (see
// internal/sim): teardown must travel at finite latency like any other
// cross-shard influence, and the lag has to be a pure function of the
// topology so every shard count schedules the identical close events.
// Host links never cross a shard and are excluded.
func (f *Fabric) MinFabricDelay() units.Time {
	var min units.Time
	found := false
	for _, leaf := range f.leaves {
		for _, up := range leaf.up {
			if d := up.Link().Delay; !found || d < min {
				min, found = d, true
			}
		}
	}
	for _, spine := range f.spines {
		for _, down := range spine.down {
			if d := down.Link().Delay; d < min {
				min = d
			}
		}
	}
	if !found {
		return 0
	}
	return min
}

// MinFabricDelay returns the minimum delay over the links a fat-tree
// partition can ever cut: only agg<->core links cross pods (edge and
// aggregation tiers shard with their pod), so those are the set.
func (f *FatTree) MinFabricDelay() units.Time {
	var min units.Time
	found := false
	for _, a := range f.aggs {
		for _, p := range a.up {
			if d := p.Link().Delay; !found || d < min {
				min, found = d, true
			}
		}
	}
	for _, c := range f.cores {
		for _, p := range c.down {
			if d := p.Link().Delay; d < min {
				min = d
			}
		}
	}
	if !found {
		return 0
	}
	return min
}

// ---- leaf-spine ----

// NewPartition implements Network: contiguous leaf groups and
// contiguous spine groups.
func (f *Fabric) NewPartition(shards int) *Partition {
	if shards > f.cfg.Leaves {
		shards = f.cfg.Leaves
	}
	if shards < 1 {
		shards = 1
	}
	return &Partition{
		Shards:     shards,
		groupOwner: contiguousOwners(f.cfg.Leaves, shards),
		topOwner:   contiguousOwners(f.cfg.Spines, shards),
	}
}

// HostOwner implements Network.
func (f *Fabric) HostOwner(p *Partition, host int) int {
	return p.groupOwner[host/f.cfg.HostsPerLeaf]
}

// LinkOwners returns the shards owning the two directed ports of a
// leaf-spine link: the up direction (leaf->spine) belongs to the
// leaf's shard, the down direction to the spine's. The sharded runner
// uses it to install each fault-schedule entry only on the shard that
// owns the affected direction.
func (f *Fabric) LinkOwners(p *Partition, leaf, spine int) (upOwner, downOwner int) {
	return p.groupOwner[leaf], p.topOwner[spine]
}

// ShardBind implements Network.
func (f *Fabric) ShardBind(p *Partition, self int, emit func(Handoff)) units.Time {
	var la units.Time
	found := false
	for l, leaf := range f.leaves {
		lo := p.groupOwner[l]
		for s, up := range leaf.up {
			so := p.topOwner[s]
			if lo == so {
				continue
			}
			down := f.spines[s].down[l]
			if d := up.Link().Delay; !found || d < la {
				la, found = d, true
			}
			if d := down.Link().Delay; d < la {
				la = d
			}
			if lo == self {
				f.bindBoundary(up, int32(so), int32(s), true, emit)
			}
			if so == self {
				f.bindBoundary(down, int32(lo), int32(l), false, emit)
			}
		}
	}
	if !found {
		return 0
	}
	return la
}

// bindBoundary installs the capture/sink pair on one owned boundary
// egress port.
func (f *Fabric) bindBoundary(port *netem.Port, dstShard, entry int32, up bool, emit func(Handoff)) {
	srcIdx := port.Index()
	port.SetBoundary(func(pkt *netem.Packet, admittedAt, deliverAt units.Time) {
		emit(Handoff{
			DeliverAt:  deliverAt,
			AdmittedAt: admittedAt,
			SrcPort:    srcIdx,
			DstShard:   dstShard,
			Entry:      entry,
			Up:         up,
			Pkt:        *pkt,
		})
	}, func(pkt *netem.Packet) { f.pool.Put(pkt) })
}

// ApplyHandoff implements Network.
func (f *Fabric) ApplyHandoff(h *Handoff) {
	p := f.pool.Get()
	*p = h.Pkt
	if h.Up {
		f.spines[h.Entry].receive(p)
	} else {
		f.leaves[h.Entry].receive(p)
	}
}

// BalancedPortOwners implements Network: BalancedPorts is all leaf
// uplinks in leaf order, each owned by its leaf's shard.
func (f *Fabric) BalancedPortOwners(p *Partition) []int {
	out := make([]int, 0, f.cfg.Leaves*f.cfg.Spines)
	for l := 0; l < f.cfg.Leaves; l++ {
		for s := 0; s < f.cfg.Spines; s++ {
			out = append(out, p.groupOwner[l])
		}
	}
	return out
}

// EveryOwnedQueue implements Network, mirroring EveryQueue's order
// with an ownership filter: host NICs and leaf ports belong to the
// leaf's shard, spine downlinks to the spine's.
func (f *Fabric) EveryOwnedQueue(p *Partition, self int, fn func(label string, q *netem.Queue)) {
	for h, port := range f.hostNIC {
		if p.groupOwner[h/f.cfg.HostsPerLeaf] == self {
			fn(port.Label(), port.Queue())
		}
	}
	for l, leaf := range f.leaves {
		if p.groupOwner[l] != self {
			continue
		}
		for _, port := range leaf.down {
			fn(port.Label(), port.Queue())
		}
		for _, port := range leaf.up {
			fn(port.Label(), port.Queue())
		}
	}
	for s, spine := range f.spines {
		if p.topOwner[s] != self {
			continue
		}
		for _, port := range spine.down {
			fn(port.Label(), port.Queue())
		}
	}
}

// ---- fat-tree ----

// NewPartition implements Network: contiguous pod groups and
// contiguous core groups.
func (f *FatTree) NewPartition(shards int) *Partition {
	if shards > f.cfg.K {
		shards = f.cfg.K
	}
	if shards < 1 {
		shards = 1
	}
	half := f.cfg.K / 2
	return &Partition{
		Shards:     shards,
		groupOwner: contiguousOwners(f.cfg.K, shards),
		topOwner:   contiguousOwners(half*half, shards),
	}
}

// HostOwner implements Network.
func (f *FatTree) HostOwner(p *Partition, host int) int {
	return p.groupOwner[f.podOf(host)]
}

// ShardBind implements Network. The only possible boundaries are
// agg<->core links (edge and agg tiers are intra-pod).
func (f *FatTree) ShardBind(p *Partition, self int, emit func(Handoff)) units.Time {
	var la units.Time
	found := false
	k := f.cfg.K
	half := k / 2
	for pod := 0; pod < k; pod++ {
		po := p.groupOwner[pod]
		for a := 0; a < half; a++ {
			agg := f.aggs[pod*half+a]
			for j := 0; j < half; j++ {
				c := a*half + j
				co := p.topOwner[c]
				if po == co {
					continue
				}
				up := agg.up[j]
				down := f.cores[c].down[pod]
				if d := up.Link().Delay; !found || d < la {
					la, found = d, true
				}
				if d := down.Link().Delay; d < la {
					la = d
				}
				if po == self {
					f.bindBoundary(up, int32(co), int32(c), true, emit)
				}
				if co == self {
					f.bindBoundary(down, int32(po), int32(pod*half+a), false, emit)
				}
			}
		}
	}
	if !found {
		return 0
	}
	return la
}

// bindBoundary installs the capture/sink pair on one owned boundary
// egress port.
func (f *FatTree) bindBoundary(port *netem.Port, dstShard, entry int32, up bool, emit func(Handoff)) {
	srcIdx := port.Index()
	port.SetBoundary(func(pkt *netem.Packet, admittedAt, deliverAt units.Time) {
		emit(Handoff{
			DeliverAt:  deliverAt,
			AdmittedAt: admittedAt,
			SrcPort:    srcIdx,
			DstShard:   dstShard,
			Entry:      entry,
			Up:         up,
			Pkt:        *pkt,
		})
	}, func(pkt *netem.Packet) { f.pool.Put(pkt) })
}

// ApplyHandoff implements Network.
func (f *FatTree) ApplyHandoff(h *Handoff) {
	p := f.pool.Get()
	*p = h.Pkt
	if h.Up {
		f.cores[h.Entry].receive(p)
	} else {
		f.aggs[h.Entry].receiveDown(p)
	}
}

// BalancedPortOwners implements Network: BalancedPorts is every edge
// uplink (edge order) then every agg uplink (agg order); all are
// intra-pod ports owned by their pod's shard.
func (f *FatTree) BalancedPortOwners(p *Partition) []int {
	half := f.cfg.K / 2
	out := make([]int, 0, 2*f.cfg.K*half*half)
	for _, e := range f.edges {
		for j := 0; j < half; j++ {
			out = append(out, p.groupOwner[e.pod])
		}
	}
	for _, a := range f.aggs {
		for j := 0; j < half; j++ {
			out = append(out, p.groupOwner[a.pod])
		}
	}
	return out
}

// EveryOwnedQueue implements Network, mirroring EveryQueue's order
// with an ownership filter: everything inside a pod belongs to the
// pod's shard, core downlinks to the core's.
func (f *FatTree) EveryOwnedQueue(p *Partition, self int, fn func(label string, q *netem.Queue)) {
	for h, port := range f.hostNIC {
		if p.groupOwner[f.podOf(h)] == self {
			fn(port.Label(), port.Queue())
		}
	}
	for _, e := range f.edges {
		if p.groupOwner[e.pod] != self {
			continue
		}
		for _, port := range e.down {
			fn(port.Label(), port.Queue())
		}
		for _, port := range e.up {
			fn(port.Label(), port.Queue())
		}
	}
	for _, a := range f.aggs {
		if p.groupOwner[a.pod] != self {
			continue
		}
		for _, port := range a.down {
			fn(port.Label(), port.Queue())
		}
		for _, port := range a.up {
			fn(port.Label(), port.Queue())
		}
	}
	for c, core := range f.cores {
		if p.topOwner[c] != self {
			continue
		}
		for _, port := range core.down {
			fn(port.Label(), port.Queue())
		}
	}
}
