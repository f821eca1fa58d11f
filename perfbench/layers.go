package main

import (
	"fmt"
	"io"
	"sort"
	"time"

	"tlb/internal/sim"
)

// layerMetrics reduces a traced run to the per-layer metrics. plain
// and traced are the run's untraced and traced passes, refs its
// one-engine reference passes (sharded workload only), spans every
// span recorded.
func layerMetrics(spans []span, plain, traced, refs []pass, shares cpuShares) map[string]float64 {
	v := map[string]float64{}
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}

	// Simulated counts repeat exactly in every pass; read them from the
	// first traced one.
	first := traced[0]
	var events, enqueued, drops, retx, timeouts int64
	var maxLen int
	var util, dupack float64
	for _, r := range first.runs {
		events += int64(r.events)
		if r.res == nil {
			continue
		}
		for _, u := range r.res.Uplinks {
			enqueued += u.Queue.Enqueued
			maxLen = max(maxLen, u.Queue.MaxLen)
		}
		drops += r.res.Drops
		retx += r.stats.Retx
		timeouts += r.res.TotalTimeouts(sim.AllFlows)
		util += r.res.UplinkUtilization() / float64(len(first.runs))
		dupack += r.res.DupAckRatio(sim.AllFlows) / float64(len(first.runs))
	}
	v["eventsim.events"] = float64(events)
	v["netem.uplink_enqueued"] = float64(enqueued)
	v["netem.uplink_max_len"] = float64(maxLen)
	v["netem.drops"] = float64(drops)
	v["netem.uplink_util"] = util
	v["transport.retransmits"] = float64(retx)
	v["transport.timeouts"] = float64(timeouts)
	v["transport.dupack_ratio"] = dupack

	// Seam counters, summed over every traced pass: counts are reported
	// per pass, times per call.
	var picks, delivers, nexts seamCounter
	pickByScheme := map[string]*seamCounter{}
	for _, p := range traced {
		for _, r := range p.runs {
			if r.res == nil {
				continue
			}
			pk := r.probe.picks.total()
			picks.add(pk)
			delivers.add(r.probe.delivers.total())
			nexts.add(r.probe.nexts.total())
			s := pickByScheme[r.res.Scheme]
			if s == nil {
				s = &seamCounter{}
				pickByScheme[r.res.Scheme] = s
			}
			s.add(pk)
		}
	}
	n := float64(len(traced))
	v["lb.picks"] = float64(picks.calls) / n
	for _, s := range pickSchemes {
		v["lb.pick_ns."+s] = 0
		if c := pickByScheme[s]; c != nil {
			v["lb.pick_ns."+s] = ratio(float64(c.busy), float64(c.calls))
		}
	}
	v["transport.deliveries"] = float64(delivers.calls) / n
	v["transport.receive_ns"] = ratio(float64(delivers.busy), float64(delivers.calls))
	v["workload.next_calls"] = float64(nexts.calls) / n
	v["workload.next_ns"] = ratio(float64(nexts.busy), float64(nexts.calls))

	// Span-derived times, per traced pass, then the median.
	var build, accessors, allocMB, mallocs, gcs []float64
	for _, p := range traced {
		var b, a time.Duration
		for _, s := range spans {
			if rootOf(byID, s) != p.root {
				continue
			}
			switch s.Name {
			case "topology.build":
				b += s.dur()
			case "stats.accessors":
				a += s.dur()
			}
		}
		build = append(build, ms(b))
		accessors = append(accessors, ms(a))
	}
	// Engine and runtime rates from the untraced passes, which run the
	// same events without the wrappers' clock reads.
	var nsPerEvent []float64
	for _, p := range plain {
		nsPerEvent = append(nsPerEvent, ratio(float64(p.wall), float64(events)))
		allocMB = append(allocMB, float64(p.allocBytes)/1e6)
		mallocs = append(mallocs, ratio(float64(p.allocObjects), float64(events)))
		gcs = append(gcs, float64(p.gcCycles))
	}
	v["topology.build_ms"] = median(build)
	v["stats.accessor_ms"] = median(accessors)
	v["eventsim.ns_per_event"] = median(nsPerEvent)
	v["runtime.alloc_mb"] = median(allocMB)
	v["runtime.mallocs_per_event"] = median(mallocs)
	v["runtime.gc_cycles"] = median(gcs)

	// Set-up: the compile step of each set-up repetition.
	var compile []float64
	for _, root := range spans {
		if root.Name != "setup" {
			continue
		}
		var d time.Duration
		for _, s := range spans {
			if s.Parent == root.ID && s.Name == "spec.compile" {
				d += s.dur()
			}
		}
		compile = append(compile, ms(d))
	}
	v["spec.compile_ms"] = median(compile)

	// Sharding pays off when the one-engine reference is slower.
	v["sim.shard_speedup"] = 0
	if len(refs) > 0 {
		v["sim.shard_speedup"] = median(walls(refs)) / median(walls(plain))
	}
	v["trace.overhead"] = median(walls(traced)) / median(walls(plain))

	for _, l := range profileLayers {
		v[l+".cpu_share"] = shares.share[l]
	}
	v["sim.shard.cpu_share"] = shares.share[catShard]
	v["runtime.gc_cpu_share"] = shares.share[catGC]
	v["runtime.malloc_cpu_share"] = shares.share[catMalloc]
	v["other.cpu_share"] = shares.share[catOther]
	v["trace.profile_s"] = shares.total.Seconds()
	return v
}

// rootOf returns the ID of the root span above s.
func rootOf(byID map[int]span, s span) int {
	for s.Parent != 0 {
		s = byID[s.Parent]
	}
	return s.ID
}

func walls(ps []pass) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = p.wall.Seconds()
	}
	return out
}

// printSelfTimes writes, per span name, the total and self time of all
// spans of that name: where the traced run's wall clock went.
func printSelfTimes(w io.Writer, spans []span) {
	type agg struct{ total, self time.Duration }
	by := map[string]*agg{}
	for _, s := range spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
		}
		a.total += s.dur()
		a.self += selfTime(spans, s.ID)
	}
	names := make([]string, 0, len(by))
	for n := range by {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-18s %12s %12s\n", "span", "total_ms", "self_ms")
	for _, n := range names {
		fmt.Fprintf(w, "%-18s %12.3f %12.3f\n", n, ms(by[n].total), ms(by[n].self))
	}
}
