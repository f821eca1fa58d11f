package experiments

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// digestFigures are the figures whose CSV bytes the drift gate pins:
// one per runner feature that reaches figure output — per-packet short
// samples (fig3/4), time series and goodput ticks (fig8/9), record-mode
// FCT statistics (fig10), fault injection (figF1), RepFlow replication
// (extended) and the streamed fat-tree run (figLS).
var digestFigures = []struct {
	name string
	run  func(Options) ([]Figure, error)
	opts Options
}{
	{"fig3-4", Fig3And4, Options{Seed: 11}},
	{"fig8-9", Fig8And9, Options{Seed: 11, FlowsPerRun: 100, SweepPoints: 2}},
	{"fig10", Fig10, Options{Seed: 5, FlowsPerRun: 60, SweepPoints: 2}},
	{"figF1", FigF1, Options{Seed: 7, FlowsPerRun: 80, SweepPoints: 2}},
	{"extended", ExtendedBaselines, Options{Seed: 5, FlowsPerRun: 60, SweepPoints: 2}},
	{"figLS", FigLS, Options{Seed: 3, FlowsPerRun: 2}},
}

// deterministicCSV renders figures like figureCSV, minus the bars that
// measure the host rather than the simulation (wall-clock rates and
// peak RSS).
func deterministicCSV(figs []Figure) string {
	for i := range figs {
		bars := figs[i].Bars[:0:0]
		for _, b := range figs[i].Bars {
			if strings.Contains(b.Label, "(wall)") || strings.Contains(b.Label, "peak RSS") {
				continue
			}
			bars = append(bars, b)
		}
		figs[i].Bars = bars
	}
	return figureCSV(figs)
}

// TestFigureDigests is the drift gate for published numbers: every
// figure above must render to the SHA-256 recorded in
// testdata/figure_digests.txt. A refactor that claims to be
// behaviour-neutral must pass it unchanged. Regenerate only for an
// intended change in figure output, with
//
//	TLB_UPDATE_GOLDEN=1 go test ./internal/experiments -run TestFigureDigests
func TestFigureDigests(t *testing.T) {
	path := filepath.Join("testdata", "figure_digests.txt")
	got := make(map[string]string, len(digestFigures))
	for _, d := range digestFigures {
		figs, err := d.run(d.opts)
		if err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		sum := sha256.Sum256([]byte(deterministicCSV(figs)))
		got[d.name] = hex.EncodeToString(sum[:])
	}
	if os.Getenv("TLB_UPDATE_GOLDEN") != "" {
		var b strings.Builder
		for _, d := range digestFigures {
			fmt.Fprintf(&b, "%s %s\n", d.name, got[d.name])
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("%v (regenerate with TLB_UPDATE_GOLDEN=1)", err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, sum, ok := strings.Cut(sc.Text(), " "); ok {
			want[name] = sum
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, d := range digestFigures {
		if want[d.name] != got[d.name] {
			t.Errorf("%s: figure digest %s, golden %s", d.name, got[d.name], want[d.name])
		}
	}
}
