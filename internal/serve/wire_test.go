package serve

import (
	"encoding/json"
	"strings"
	"testing"

	"tlb/internal/sim"
)

// TestEncodeEventBarrierCounters: the sharded runner's barrier counters
// reach the wire, and a one-engine event (both counters 0) encodes
// without them, so its SSE frames keep their earlier bytes.
func TestEncodeEventBarrierCounters(t *testing.T) {
	ev := sim.ProgressEvent{Kind: sim.ProgressSnapshot, Scenario: "s", Total: 1}
	single, err := json.Marshal(encodeEvent("r", ev))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(single), "epochs") || strings.Contains(string(single), "handoffs") {
		t.Fatalf("one-engine frame carries barrier counters: %s", single)
	}
	ev.Epochs, ev.Handoffs = 7, 42
	sharded, err := json.Marshal(encodeEvent("r", ev))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(sharded), `"epochs":7,"handoffs":42`) {
		t.Fatalf("sharded frame lacks barrier counters: %s", sharded)
	}
}
