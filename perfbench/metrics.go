package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit. README.md gives
// each one's layer and the end-to-end metric it should move.
type metricDef struct{ name, unit string }

// endToEndMetrics are reported by untraced runs (-trace 0).
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"flows_per_s", "1/s"},
	{"cpu_us_per_flow", "us"},
	{"peak_rss_mb", "MB"},
	{"flows_completed_ratio", "ratio"},
}

// pickSchemes are the schemes whose Pick cost is reported separately.
var pickSchemes = []string{"ecmp", "rps", "presto", "letflow", "tlb"}

// perLayerMetrics are reported by traced runs (-trace 1).
var perLayerMetrics = func() []metricDef {
	m := []metricDef{
		{"eventsim.events", "count"},
		{"eventsim.ns_per_event", "ns"},
		{"eventsim.cpu_share", "ratio"},
		{"netem.cpu_share", "ratio"},
		{"netem.uplink_enqueued", "count"},
		{"netem.uplink_max_len", "packets"},
		{"netem.drops", "count"},
		{"netem.uplink_util", "ratio"},
		{"lb.picks", "count"},
	}
	for _, s := range pickSchemes {
		m = append(m, metricDef{"lb.pick_ns." + s, "ns"})
	}
	return append(m,
		metricDef{"lb.cpu_share", "ratio"},
		metricDef{"core.cpu_share", "ratio"},
		metricDef{"transport.deliveries", "count"},
		metricDef{"transport.receive_ns", "ns"},
		metricDef{"transport.retransmits", "count"},
		metricDef{"transport.timeouts", "count"},
		metricDef{"transport.dupack_ratio", "ratio"},
		metricDef{"transport.cpu_share", "ratio"},
		metricDef{"topology.build_ms", "ms"},
		metricDef{"topology.cpu_share", "ratio"},
		metricDef{"workload.next_calls", "count"},
		metricDef{"workload.next_ns", "ns"},
		metricDef{"workload.cpu_share", "ratio"},
		metricDef{"spec.compile_ms", "ms"},
		metricDef{"spec.cpu_share", "ratio"},
		metricDef{"stats.cpu_share", "ratio"},
		metricDef{"stats.accessor_ms", "ms"},
		metricDef{"sim.cpu_share", "ratio"},
		metricDef{"sim.shard.cpu_share", "ratio"},
		metricDef{"sim.shard_speedup", "x"},
		metricDef{"runtime.alloc_mb", "MB"},
		metricDef{"runtime.mallocs_per_event", "count"},
		metricDef{"runtime.gc_cycles", "count"},
		metricDef{"runtime.gc_cpu_share", "ratio"},
		metricDef{"runtime.malloc_cpu_share", "ratio"},
		metricDef{"other.cpu_share", "ratio"},
		metricDef{"trace.overhead", "x"},
		metricDef{"trace.profile_s", "s"},
	)
}()

// result is the benchmark's verdict line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the metrics as a table, then the verdict as the last
// line of w. Every metric of defs must have a value.
func report(w io.Writer, defs []metricDef, values map[string]float64, correct bool, attempted, failed int) error {
	res := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		fmt.Fprintf(w, "%-28s %16.6g %s\n", d.name, v, d.unit)
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio divides, reading 0 for an empty denominator.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
