package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"tlb/internal/spec"
)

var (
	metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	metricUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef(nil), endToEndMetrics...), perLayerMetrics...) {
		if !metricName.MatchString(m.name) {
			t.Errorf("metric name %q: want letters, digits, _ . - only, starting with a letter or digit, at most 64", m.name)
		}
		if !metricUnit.MatchString(m.unit) {
			t.Errorf("metric %s: unit %q is not a valid unit", m.name, m.unit)
		}
		if seen[m.name] {
			t.Errorf("metric name %q used twice", m.name)
		}
		seen[m.name] = true
	}
	for _, w := range workloads {
		if !metricName.MatchString(w.name) || seen[w.name] {
			t.Errorf("workload name %q is invalid or reused", w.name)
		}
		seen[w.name] = true
	}
}

// TestBenchmarkJSONMatches keeps the benchmark declaration at the
// repository root in step with what this program measures.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit string
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range decl.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program reports %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", decl.EndToEnd, endToEndMetrics)
	check("per_layer", decl.PerLayer, perLayerMetrics)
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "a", Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Name: "b", Start: 30 * ms, End: 60 * ms},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 35 * ms, End: 45 * ms},  // inside a and b
		{ID: 5, Parent: 1, Name: "d", Start: 90 * ms, End: 120 * ms}, // runs past the parent
		{ID: 6, Parent: 2, Name: "grandchild", Start: 70 * ms, End: 80 * ms},
	}
	// Children cover [10,60) and [90,100): 60ms of the parent's 100ms.
	if got := selfTime(spans, 1); got != 40*ms {
		t.Errorf("self time of parent = %v, want 40ms", got)
	}
	if got := selfTime(spans, 3); got != 30*ms {
		t.Errorf("self time of a leaf = %v, want its duration 30ms", got)
	}
}

func TestParseTracesAttributesLeafFrames(t *testing.T) {
	const out = `File: perfbench
Type: cpu
-----------+-------------------------------------------------------
      40ms   tlb/internal/netem.(*Port).Send /src/internal/netem/port.go:241
             tlb/internal/eventsim.(*Sim).invoke /src/internal/eventsim/eventsim.go:474
-----------+-------------------------------------------------------
      10ms   runtime.asyncPreempt /go/src/runtime/preempt_amd64.s:8
             tlb/internal/transport.(*Host).Receive /src/internal/transport/host.go:154
-----------+-------------------------------------------------------
      20ms   runtime.scanobject /go/src/runtime/mgcmark.go:1400
             runtime.gcDrain /go/src/runtime/mgcmark.go:1200
             runtime.gcBgMarkWorker /go/src/runtime/mgc.go:1400
-----------+-------------------------------------------------------
      10ms   runtime.memclrNoHeapPointers /go/src/runtime/memclr_amd64.s:90
             runtime.mallocgc /go/src/runtime/malloc.go:1000
             tlb/internal/sim.splitDue /src/internal/sim/shard.go:700
-----------+-------------------------------------------------------
      10ms   tlb/internal/sim.splitDue /src/internal/sim/shard.go:710
-----------+-------------------------------------------------------
      10ms   runtime.memmove /go/src/runtime/memmove_amd64.s:122
             tlb/internal/stats.(*Sketch).Add /src/internal/stats/sketch.go:50
-----------+-------------------------------------------------------
`
	got, err := parseTraces(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"netem": 0.4, "transport": 0.1, catGC: 0.2, catMalloc: 0.1, "sim": 0.1, catShard: 0.1, catOther: 0.1,
	}
	if got.total != 100*time.Millisecond {
		t.Errorf("total = %v, want 100ms", got.total)
	}
	for k, w := range want {
		if math.Abs(got.share[k]-w) > 1e-12 {
			t.Errorf("share[%s] = %v, want %v", k, got.share[k], w)
		}
	}
	if len(got.share) != len(want) {
		t.Errorf("shares = %v, want exactly %v", got.share, want)
	}
}

// smallLeafSpine is a fast Fig. 10-style scenario set.
func smallLeafSpine(seed uint64) []spec.Spec {
	specs := websearchSpecs(seed)
	for i := range specs {
		specs[i].Topology.Leaves, specs[i].Topology.Spines, specs[i].Topology.HostsPerLeaf = 4, 4, 8
		specs[i].Workload.Flows = 40
		specs[i].Workload.Sizes.Truncate = "1MB"
	}
	return specs
}

// smallFatTree is a fast figLS-style scenario set on a k=4 fat-tree.
func smallFatTree(seed uint64) []spec.Spec {
	specs := interpodSpecs(seed)
	for i := range specs {
		specs[i].Topology.K = 4
		specs[i].Workload.InterPod.Flows = 300
	}
	return specs
}

// TestWrappersLeaveDigestUnchanged runs each small scenario set
// untraced and traced: the wrapped balancer factory, delivery function
// and flow source, the observer and the spans must not change a single
// simulated statistic. The sharded fat-tree must also reproduce the
// one-engine digest, with its per-shard wrappers built concurrently.
func TestWrappersLeaveDigestUnchanged(t *testing.T) {
	cases := []struct {
		name     string
		specs    []spec.Spec
		wantNext bool
	}{
		{"leafspine", smallLeafSpine(7), false},
		{"fattree", smallFatTree(7), true},
		{"fattree-sharded", sharded(smallFatTree(7), 2), true},
	}
	var oneEngine string
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cs, err := compileSpecs(tc.specs, nil)
			if err != nil {
				t.Fatal(err)
			}
			plain := runPass(cs, nil)
			traced := runPass(cs, newSpanLog())
			if plain.failed != 0 || traced.failed != 0 {
				t.Fatalf("failed flows: untraced %d, traced %d", plain.failed, traced.failed)
			}
			if plain.digest != traced.digest {
				t.Errorf("traced digest %s != untraced %s", traced.digest, plain.digest)
			}
			for _, r := range traced.runs {
				if r.probe.picks.total().calls == 0 || r.probe.delivers.total().calls == 0 || r.events == 0 {
					t.Errorf("%s: a wrapped seam saw no calls (picks %d, deliveries %d, events %d)", r.stats.Name,
						r.probe.picks.total().calls, r.probe.delivers.total().calls, r.events)
				}
				if got := r.probe.nexts.total().calls > 0; got != tc.wantNext {
					t.Errorf("%s: flow source calls seen = %v, want %v", r.stats.Name, got, tc.wantNext)
				}
			}
			switch tc.name {
			case "fattree":
				oneEngine = plain.digest
			case "fattree-sharded":
				if plain.digest != oneEngine {
					t.Errorf("sharded digest %s != one-engine digest %s", plain.digest, oneEngine)
				}
			}
		})
	}
}
