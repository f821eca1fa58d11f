package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime/pprof"
	"strings"
	"time"
)

// Layers that get their own CPU share: the repository modules on the
// measured path. Samples in other modules, the standard library, the
// benchmark itself, or runtime code that is neither GC nor allocation
// count as "other".
var profileLayers = []string{
	"spec", "workload", "topology", "lb", "core", "transport", "netem", "eventsim", "sim", "stats",
}

// Profile categories beside the layers.
const (
	catGC     = "runtime.gc"
	catMalloc = "runtime.malloc"
	catOther  = "other"
	// catShard is a sub-share of sim and topology: samples whose leaf
	// frame lies in the sharded runner or the topology's shard code.
	catShard = "sim.shard"
)

// cpuShares is the result of attributing a CPU profile: the share of
// samples per category, and the sample time it rests on.
type cpuShares struct {
	share map[string]float64
	total time.Duration
}

// attributeProfiles reads CPU profiles with the toolchain's offline
// pprof and attributes every sample by its leaf frame.
func attributeProfiles(exe string, files []string) (cpuShares, error) {
	args := append([]string{"tool", "pprof", "-traces", "-lines", exe}, files...)
	cmd := exec.Command("go", args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return cpuShares{}, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	return parseTraces(&stdout)
}

// parseTraces reads `go tool pprof -traces -lines` output: blocks of
// one stack each, separated by dashed rules, whose first line carries
// the sample value before the leaf frame ("10ms   pkg.fn file:line").
func parseTraces(r io.Reader) (cpuShares, error) {
	weights := map[string]time.Duration{}
	var total time.Duration
	var value time.Duration
	var stack []frame
	flush := func() {
		if len(stack) > 0 {
			for _, c := range classify(stack) {
				weights[c] += value
			}
			total += value
		}
		stack = stack[:0]
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	inStacks := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inStacks = true
			continue
		}
		if !inStacks || strings.TrimSpace(line) == "" {
			continue
		}
		fields := strings.Fields(line)
		if len(stack) == 0 {
			// First line of a block: the value, then the leaf frame.
			v, err := time.ParseDuration(fields[0])
			if err != nil {
				return cpuShares{}, fmt.Errorf("pprof traces: bad sample value in %q", line)
			}
			value = v
			fields = fields[1:]
		}
		if len(fields) == 0 {
			continue
		}
		f := frame{fn: fields[0]}
		if len(fields) > 1 {
			f.file = fields[1]
			if i := strings.LastIndexByte(f.file, ':'); i >= 0 {
				f.file = f.file[:i]
			}
		}
		stack = append(stack, f)
	}
	if err := sc.Err(); err != nil {
		return cpuShares{}, err
	}
	flush()
	if total <= 0 {
		return cpuShares{}, fmt.Errorf("pprof traces: the profile holds no samples")
	}
	out := cpuShares{share: map[string]float64{}, total: total}
	for c, w := range weights {
		out.share[c] = float64(w) / float64(total)
	}
	return out, nil
}

// frame is one stack frame: function and source file.
type frame struct{ fn, file string }

// classify names the categories a sample counts toward, leaf first in
// stack. The first is its exclusive category (a layer, runtime.gc,
// runtime.malloc or other); a sample whose leaf lies in shard code also
// counts toward sim.shard.
func classify(stack []frame) []string {
	// A sample taken while preempting belongs to the interrupted code.
	for len(stack) > 1 && stack[0].fn == "runtime.asyncPreempt" {
		stack = stack[1:]
	}
	leaf := stack[0]
	if layer, ok := layerOf(leaf.fn); ok {
		if strings.HasSuffix(leaf.file, "/internal/sim/shard.go") || strings.HasSuffix(leaf.file, "/internal/topology/shard.go") {
			return []string{layer, catShard}
		}
		return []string{layer}
	}
	// The leaf is outside the repository. Walk out through the foreign
	// frames: the first GC or allocation frame decides, and reaching
	// repository code first means the time is the caller's own use of
	// the runtime or standard library.
	for _, f := range stack {
		if strings.HasPrefix(f.fn, "tlb/") {
			break
		}
		switch {
		case isGCFrame(f.fn):
			return []string{catGC}
		case isMallocFrame(f.fn):
			return []string{catMalloc}
		}
	}
	return []string{catOther}
}

// layerOf maps a function symbol to its measured layer.
func layerOf(fn string) (string, bool) {
	rest, ok := strings.CutPrefix(fn, "tlb/internal/")
	if !ok {
		return "", false
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	for _, l := range profileLayers {
		if l == rest {
			return l, true
		}
	}
	return "", false
}

func isGCFrame(fn string) bool {
	if strings.HasPrefix(fn, "runtime.gc") || strings.HasPrefix(fn, "gcWriteBarrier") {
		return true
	}
	for _, s := range []string{
		"runtime.wbBuf", "runtime.markroot", "runtime.scanobject", "runtime.scanblock", "runtime.scanstack",
		"runtime.greyobject", "runtime.bgsweep", "runtime.sweepone", "runtime.bgscavenge", "runtime.deductSweepCredit",
		"runtime.(*gcWork)", "runtime.(*mspan).sweep", "runtime.(*sweepLocked)",
	} {
		if strings.HasPrefix(fn, s) {
			return true
		}
	}
	return false
}

func isMallocFrame(fn string) bool {
	for _, s := range []string{
		"runtime.mallocgc", "runtime.newobject", "runtime.newarray", "runtime.growslice", "runtime.makeslice",
		"runtime.makemap", "runtime.rawstring", "runtime.rawbyteslice", "runtime.(*mcache)", "runtime.(*mcentral)",
		"runtime.(*mheap)",
	} {
		if strings.HasPrefix(fn, s) {
			return true
		}
	}
	return false
}

// profiler takes one CPU profile per traced pass; pprof merges them.
type profiler struct {
	prefix string
	files  []string
	cur    *os.File
}

func (p *profiler) start() error {
	f, err := os.Create(fmt.Sprintf("%s-%d.pprof", p.prefix, len(p.files)))
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	p.cur = f
	return nil
}

func (p *profiler) stop() error {
	pprof.StopCPUProfile()
	f := p.cur
	p.cur = nil
	if err := f.Close(); err != nil {
		return err
	}
	p.files = append(p.files, f.Name())
	return nil
}
