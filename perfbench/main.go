// Command perfbench is the repository benchmark. It generates one
// workload's scenario specs from a seed, runs them through the public
// spec -> sim.Session path for a fixed measurement time, checks the
// simulated statistics, and prints end-to-end metrics (-trace 0) or a
// per-layer breakdown from a traced run (-trace 1). The last line of
// standard output is the machine-readable verdict. README.md describes
// the workloads and metrics; run.sh builds and starts it.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"tlb/internal/spec"
)

// Repetitions within one run: medians over them are what gets
// reported, so one slow pass or set-up does not move a run's figure.
const (
	setupReps = 15
	setupTime = 1500 * time.Millisecond
	minPasses = 3
)

type config struct {
	w       workloadDef
	seed    uint64
	measure time.Duration
	workdir string
	out     io.Writer // metrics and verdict
	log     io.Writer // progress and span summary
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Uint64("seed", 1, "seed written into every generated spec")
		seconds = flag.Float64("seconds", 10, "measurement time of the run")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics from untraced passes; 1: per-layer metrics from a traced run")
		workdir = flag.String("workdir", ".bench_build/perfbench.d", "directory for CPU profiles and span logs")
	)
	flag.Parse()
	w, ok := lookupWorkload(*name)
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds > 0 and -trace 0 or 1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	cfg := config{
		w:       w,
		seed:    *seed,
		measure: time.Duration(*seconds * float64(time.Second)),
		workdir: *workdir,
		out:     os.Stdout,
		log:     os.Stderr,
	}
	run := runEndToEnd
	if *traced == 1 {
		run = runTraced
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// checker accumulates the output checks of a run.
type checker struct {
	problems  []string
	attempted int
	failed    int
	digest    string // of the first pass; every later pass must match it
	stats     []simStats
}

func (c *checker) fail(format string, args ...any) {
	c.problems = append(c.problems, fmt.Sprintf(format, args...))
}

// pass checks that every flow of every scenario completed and that the
// simulated statistics repeat those of the run's first pass exactly.
func (c *checker) pass(kind string, p pass) {
	c.attempted += p.attempted
	c.failed += p.failed
	for _, r := range p.runs {
		switch {
		case r.err != nil:
			c.fail("%s pass: scenario %s: %v", kind, r.stats.Name, r.err)
		case r.stats.Completed != r.stats.Flows:
			c.fail("%s pass: scenario %s completed %d of %d flows", kind, r.stats.Name, r.stats.Completed, r.stats.Flows)
		}
	}
	if c.digest == "" {
		c.digest = p.digest
		for _, r := range p.runs {
			c.stats = append(c.stats, r.stats)
		}
		return
	}
	if p.digest != c.digest {
		c.fail("%s pass digest %s differs from the first pass's %s", kind, p.digest, c.digest)
	}
}

// reference runs the workload's reference scenarios once and checks
// them like a pass: they must reproduce the run's digest. It returns
// the reference pass.
func (c *checker) reference(cfg config) (pass, error) {
	cs, err := compileSpecs(cfg.w.reference(cfg.seed), nil)
	if err != nil {
		return pass{}, err
	}
	p := runPass(cs, nil)
	c.pass("one-engine reference", p)
	return p, nil
}

// print writes the simulated statistics and their digest.
func (c *checker) print(w io.Writer) {
	for _, s := range c.stats {
		fmt.Fprintln(w, "sim", s)
	}
	fmt.Fprintln(w, "digest", c.digest)
	for _, p := range c.problems {
		fmt.Fprintln(w, "check failed:", p)
	}
}

func compileSpecs(specs []spec.Spec, spans *spanLog) ([]compiled, error) {
	docs, err := encodeSpecs(specs)
	if err != nil {
		return nil, err
	}
	return setup(docs, spans)
}

// measureSetup repeats the set-up at least setupReps times and for at
// least setupTime, and returns the compiled scenarios and the duration
// of each repetition.
func measureSetup(cfg config, spans *spanLog) ([]compiled, []float64, error) {
	docs, err := encodeSpecs(cfg.w.specs(cfg.seed))
	if err != nil {
		return nil, nil, err
	}
	var cs []compiled
	var times []float64
	start := time.Now()
	for len(times) < setupReps || time.Since(start) < setupTime {
		// Start every repetition from the same heap state, so a GC cycle
		// left over from the previous one does not land in this one.
		runtime.GC()
		t0 := time.Now()
		cs, err = setup(docs, spans)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	fmt.Fprintf(cfg.log, "setup: %d repetitions, median %.6fs\n", len(times), median(times))
	return cs, times, nil
}

// runEndToEnd measures untraced passes for the measurement time and
// reports the end-to-end metrics.
func runEndToEnd(cfg config) error {
	cs, setupTimes, err := measureSetup(cfg, nil)
	if err != nil {
		return err
	}
	var c checker
	var rates, cpuPerFlow []float64
	completed := 0
	start := time.Now()
	for len(rates) < minPasses || time.Since(start) < cfg.measure {
		p := runPass(cs, nil)
		c.pass("untraced", p)
		completed += p.completed
		rates = append(rates, ratio(float64(p.completed), p.wall.Seconds()))
		cpuPerFlow = append(cpuPerFlow, ratio(float64(p.cpu.Microseconds()), float64(p.completed)))
		fmt.Fprintf(cfg.log, "pass %d: %.3fs wall, %.3fs cpu, %d flows\n", len(rates), p.wall.Seconds(), p.cpu.Seconds(), p.completed)
	}
	attempted := c.attempted
	if cfg.w.reference != nil {
		if _, err := c.reference(cfg); err != nil {
			return err
		}
	}
	c.print(cfg.out)
	values := map[string]float64{
		"setup_s":               median(setupTimes),
		"flows_per_s":           median(rates),
		"cpu_us_per_flow":       median(cpuPerFlow),
		"peak_rss_mb":           float64(peakRSSBytes()) / 1e6,
		"flows_completed_ratio": ratio(float64(completed), float64(attempted)),
	}
	return report(cfg.out, endToEndMetrics, values, len(c.problems) == 0, c.attempted, c.failed)
}

// runTraced alternates untraced and traced passes for the measurement
// time. Traced passes wrap every seam and record spans. Untraced passes
// run under the CPU profiler, whose 100 Hz sampling costs far less than
// the wrappers' clock reads would add to every layer's share; they also
// give the overhead baseline and, with the digest check, show that the
// instrumentation is neutral.
func runTraced(cfg config) error {
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	base := filepath.Join(cfg.workdir, fmt.Sprintf("%s-seed%d", cfg.w.name, cfg.seed))
	spans := newSpanLog()
	cs, _, err := measureSetup(cfg, spans)
	if err != nil {
		return err
	}
	var c checker
	prof := &profiler{prefix: base + "-cpu"}
	var plain, traced, refs []pass
	start := time.Now()
	for len(traced) < 2 || time.Since(start) < cfg.measure {
		if err := prof.start(); err != nil {
			return err
		}
		p := runPass(cs, nil)
		if err := prof.stop(); err != nil {
			return err
		}
		c.pass("untraced", p)
		plain = append(plain, p)

		p = runPass(cs, spans)
		c.pass("traced", p)
		traced = append(traced, p)

		if cfg.w.reference != nil {
			r, err := c.reference(cfg)
			if err != nil {
				return err
			}
			refs = append(refs, r)
		}
		fmt.Fprintf(cfg.log, "round %d: untraced %.3fs, traced %.3fs\n", len(traced), plain[len(plain)-1].wall.Seconds(), p.wall.Seconds())
	}
	shares, err := attributeProfiles(exe, prof.files)
	if err != nil {
		return err
	}
	all := spans.snapshot()
	if err := spans.writeFile(base + "-spans.json"); err != nil {
		return err
	}
	printSelfTimes(cfg.log, all)
	c.print(cfg.out)
	values := layerMetrics(all, plain, traced, refs, shares)
	return report(cfg.out, perLayerMetrics, values, len(c.problems) == 0, c.attempted, c.failed)
}
