package batch

import (
	"fmt"
	"testing"

	"netrel/internal/preprocess"
)

func sig(n uint64) preprocess.Signature { return preprocess.Signature{Hi: n, Lo: ^n} }

func TestDedupSpecsGroupsInFirstUseOrder(t *testing.T) {
	dd := DedupSpecs([]preprocess.Signature{
		sig(7), sig(3), sig(7), sig(9), sig(3), sig(7),
	})
	if got, want := fmt.Sprint(dd.Slot), "[0 1 0 2 1 0]"; got != want {
		t.Fatalf("Slot = %v, want %v", got, want)
	}
	if got, want := fmt.Sprint(dd.First), "[0 1 3]"; got != want {
		t.Fatalf("First = %v, want %v", got, want)
	}
	if dd.Distinct() != 3 || dd.Deduped() != 3 {
		t.Fatalf("distinct/deduped = %d/%d, want 3/3", dd.Distinct(), dd.Deduped())
	}

	empty := DedupSpecs(nil)
	if empty.Distinct() != 0 || empty.Deduped() != 0 || len(empty.Slot) != 0 {
		t.Fatalf("empty dedup: %+v", empty)
	}
}
