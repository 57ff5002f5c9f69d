package cache

import (
	"math/rand"
	"testing"
)

// scanTLB is the original O(entries) TLB implementation, kept as the
// behavioural reference for the O(1) indexed implementation: same hit and
// same victim on every access.
type scanTLB struct {
	entries   []way
	pageShift uint
	stamp     uint64
}

func (t *scanTLB) access(addr uint64) bool {
	t.stamp++
	page := addr >> t.pageShift
	victim := 0
	for i := range t.entries {
		e := &t.entries[i]
		if e.valid && e.tag == page {
			e.lru = t.stamp
			return true
		}
		if !e.valid {
			victim = i
		} else if t.entries[victim].valid && e.lru < t.entries[victim].lru {
			victim = i
		}
	}
	t.entries[victim] = way{tag: page, valid: true, lru: t.stamp}
	return false
}

// TestTLBMatchesScanReference drives the indexed TLB and the scan
// reference with identical random streams — mixes of hot pages, cold
// sweeps and phase changes — and requires the hit/miss sequence to match
// exactly. Identical hits with identical replacement imply identical
// resident sets, so this pins full behavioural equivalence.
func TestTLBMatchesScanReference(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const entries = 48
		fast := NewTLB(entries, DefaultPageBytes)
		ref := &scanTLB{entries: make([]way, entries), pageShift: fast.pageShift}
		for n := 0; n < 50_000; n++ {
			var addr uint64
			switch rng.Intn(3) {
			case 0: // hot set, mostly hits
				addr = uint64(rng.Intn(entries/2)) << fast.pageShift
			case 1: // warm set around capacity, churn
				addr = uint64(rng.Intn(entries*2)) << fast.pageShift
			default: // cold sweep
				addr = uint64(rng.Intn(1<<20)) * 64
			}
			if got, want := fast.Access(addr), ref.access(addr); got != want {
				t.Fatalf("seed %d access %d addr %#x: hit=%v, reference=%v", seed, n, addr, got, want)
			}
		}
		if fast.stats.Accesses != 50_000 {
			t.Fatalf("accesses = %d", fast.stats.Accesses)
		}
	}
}
