package main

import (
	"sort"

	// Registers the "tlb" scheme with the balancer registry.
	_ "tlb/internal/core"
	"tlb/internal/spec"
)

// Flow counts per scenario, sized so one pass over a workload's
// scenarios takes a few seconds on a 2-CPU box: short enough that a
// run measures several passes and reports their median, long enough
// that per-pass timer and scheduling noise stays small.
const (
	websearchFlows = 200
	interpodFlows  = 8000
)

// websearchFlowSeed fixes the web-search flow set. Web-search sizes are
// heavy-tailed (up to 20 MB), so the total bytes of a 200-flow draw
// vary by tens of percent from one draw to the next, and flows/sec
// would measure the draw instead of the code. The run seed still
// drives every balancer's and the engine's randomness, so each seed
// gives a different simulation of the same offered work.
var websearchFlowSeed uint64 = 42

// workloadDef is one benchmark workload: the scenarios one pass runs,
// generated from the seed, and optionally the scenarios whose
// simulated statistics this workload must reproduce exactly. README.md
// gives the reason for each.
type workloadDef struct {
	name string
	// specs returns the pass's scenarios for a seed, in run order.
	specs func(seed uint64) []spec.Spec
	// reference, when set, returns scenarios that must produce the
	// same digest as specs for the same seed.
	reference func(seed uint64) []spec.Spec
}

var workloads = []workloadDef{
	{name: "websearch-leafspine", specs: websearchSpecs},
	{name: "interpod-fattree-stream", specs: interpodSpecs},
	{
		name:      "interpod-fattree-sharded",
		specs:     func(seed uint64) []spec.Spec { return sharded(interpodSpecs(seed), 2) },
		reference: interpodSpecs,
	},
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	sort.Strings(names)
	return names
}

// fig10Schemes are the paper's five schemes with the parameters the
// Fig. 10 runner gives them.
var fig10Schemes = []spec.Scheme{
	{Name: "ecmp"},
	{Name: "rps"},
	{Name: "presto"},
	{Name: "letflow", Params: spec.Params{"gap": "150us"}},
	{Name: "tlb", Params: spec.Params{"meanShortSize": "30KB"}},
}

// websearchSpecs is the Fig. 10 environment at load 0.8: an 8x8
// leaf-spine with 32 hosts per leaf, 1 Gbps links, ECN at 65 packets,
// Poisson web-search flows truncated at 20 MB.
func websearchSpecs(seed uint64) []spec.Spec {
	out := make([]spec.Spec, 0, len(fig10Schemes))
	for _, sch := range fig10Schemes {
		out = append(out, spec.Spec{
			Version: spec.Version,
			Name:    "websearch-" + sch.Name,
			Seed:    seed,
			Scheme:  sch,
			Topology: spec.Topology{
				Leaves: 8, Spines: 8, HostsPerLeaf: 32,
				HostLink:   spec.Link{Bandwidth: "1Gbps", Delay: "5us"},
				FabricLink: spec.Link{Bandwidth: "1Gbps", Delay: "10us"},
				Queue:      spec.Queue{Capacity: 256, ECNThreshold: 65},
			},
			Workload: spec.Workload{
				Kind:      "poisson",
				Seed:      &websearchFlowSeed,
				Flows:     websearchFlows,
				Load:      0.8,
				Sizes:     &spec.SizeDist{Kind: "websearch", Truncate: "20MB"},
				Deadlines: &spec.Deadlines{Min: "5ms", Max: "25ms", OnlyBelow: "100KB"},
			},
			Run: spec.Run{MaxTime: "60s", StopWhenDone: true},
		})
	}
	return out
}

// interpodSpecs is the figLS scenario (k=16 fat-tree, 1024 hosts,
// inter-pod mice of 2-32 KB arriving at most 1.2us apart) at a reduced
// flow count, under ECMP and TLB, streamed.
func interpodSpecs(seed uint64) []spec.Spec {
	out := make([]spec.Spec, 0, 2)
	for _, scheme := range []string{"ecmp", "tlb"} {
		out = append(out, spec.Spec{
			Version: spec.Version,
			Name:    "interpod-" + scheme,
			Seed:    seed,
			Scheme:  spec.Scheme{Name: scheme},
			Topology: spec.Topology{
				Kind:       "fattree",
				K:          16,
				HostLink:   spec.Link{Bandwidth: "1Gbps", Delay: "5us"},
				FabricLink: spec.Link{Bandwidth: "1Gbps", Delay: "10us"},
				Queue:      spec.Queue{Capacity: 256, ECNThreshold: 65},
			},
			Workload: spec.Workload{
				Kind: "interpod",
				InterPod: &spec.InterPod{
					Flows:             interpodFlows,
					Sizes:             spec.SizeDist{Kind: "uniform", Min: "2KB", Max: "32KB"},
					MaxGap:            "1200ns",
					DeadlineBase:      "5ms",
					DeadlineJitter:    "20ms",
					DeadlineOnlyBelow: "100KB",
				},
			},
			Run:     spec.Run{MaxTime: "600s", StopWhenDone: true},
			Outputs: spec.Outputs{StreamStats: true},
		})
	}
	return out
}

// sharded sets every spec to run on n spatial shards.
func sharded(specs []spec.Spec, n int) []spec.Spec {
	for i := range specs {
		specs[i].Run.Shards = n
	}
	return specs
}

// flowCount is the number of flows a spec asks for.
func flowCount(s *spec.Spec) int {
	if s.Workload.InterPod != nil {
		return s.Workload.InterPod.Flows
	}
	return s.Workload.Flows
}
