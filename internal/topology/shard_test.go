package topology

import (
	"slices"
	"sort"
	"testing"

	"tlb/internal/eventsim"
	"tlb/internal/units"
)

// TestHandoffHeapMatchesStableSort drives the heap the way the sharded
// runner does — batches of pushes between PopDue calls at random
// deadlines — and checks every popped batch against the reference the
// heap replaced: a stable sort by HandoffBefore of everything pending,
// filtered to DeliverAt ≤ deadline. Narrow key ranges force ties on
// DeliverAt and on AdmittedAt, and full-key duplicates too; since the
// heap is not stable, the comparison is on the key triple in order plus
// the popped multiset (each handoff carries a unique tag in Entry).
func TestHandoffHeapMatchesStableSort(t *testing.T) {
	type key struct {
		deliver, admitted units.Time
		port              uint32
	}
	keyOf := func(h *Handoff) key { return key{h.DeliverAt, h.AdmittedAt, h.SrcPort} }
	for seed := uint64(1); seed <= 50; seed++ {
		rng := eventsim.NewRNG(seed)
		var (
			h       HandoffHeap
			pending []Handoff // reference, in push order
			due     []Handoff
			tag     int32
			popped  int
		)
		for round := 0; round < 40; round++ {
			for n := rng.Intn(12); n > 0; n-- {
				x := Handoff{
					DeliverAt:  units.Time(rng.Intn(60)),
					AdmittedAt: units.Time(rng.Intn(4)),
					SrcPort:    uint32(rng.Intn(3)),
					Entry:      tag,
				}
				tag++
				h.Push(&x)
				pending = append(pending, x)
			}
			// Half the deadlines land exactly on a pending DeliverAt, so
			// the inclusive bound is exercised.
			deadline := units.Time(rng.Intn(60))
			if len(pending) > 0 && rng.Intn(2) == 0 {
				deadline = pending[rng.Intn(len(pending))].DeliverAt
			}
			want := slices.Clone(pending)
			sort.SliceStable(want, func(i, j int) bool { return HandoffBefore(&want[i], &want[j]) })
			cut := sort.Search(len(want), func(i int) bool { return want[i].DeliverAt > deadline })
			want = want[:cut]
			pending = slices.DeleteFunc(pending, func(x Handoff) bool { return x.DeliverAt <= deadline })

			due = h.PopDue(due[:0], deadline)
			if len(due) != len(want) {
				t.Fatalf("seed %d round %d: popped %d handoffs at deadline %v, want %d", seed, round, len(due), deadline, len(want))
			}
			var gotTags, wantTags []int32
			for i := range due {
				if keyOf(&due[i]) != keyOf(&want[i]) {
					t.Fatalf("seed %d round %d pos %d: key %+v, want %+v", seed, round, i, keyOf(&due[i]), keyOf(&want[i]))
				}
				gotTags = append(gotTags, due[i].Entry)
				wantTags = append(wantTags, want[i].Entry)
			}
			slices.Sort(gotTags)
			slices.Sort(wantTags)
			if !slices.Equal(gotTags, wantTags) {
				t.Fatalf("seed %d round %d: popped handoffs %v, want %v", seed, round, gotTags, wantTags)
			}
			popped += len(due)
			if len(h) != len(pending) {
				t.Fatalf("seed %d round %d: heap holds %d, reference %d", seed, round, len(h), len(pending))
			}
			at, ok := h.Next()
			if ok != (len(pending) > 0) {
				t.Fatalf("seed %d round %d: Next ok=%v with %d pending", seed, round, ok, len(pending))
			}
			if ok {
				earliest := pending[0].DeliverAt
				for i := range pending {
					earliest = min(earliest, pending[i].DeliverAt)
				}
				if at != earliest || at <= deadline {
					t.Fatalf("seed %d round %d: Next = %v, want %v (> deadline %v)", seed, round, at, earliest, deadline)
				}
			}
		}
		if popped == 0 {
			t.Fatalf("seed %d: nothing ever popped", seed)
		}
	}
}
