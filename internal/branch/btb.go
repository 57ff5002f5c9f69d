package branch

// BTB is the branch target buffer: 256 entries, 4-way set associative
// (paper Table 1), true LRU within a set. It caches the targets of taken
// control instructions so fetch can redirect without decoding.
type BTB struct {
	sets  [][]btbEntry
	mask  uint64
	stamp uint64
	stats BTBStats
}

type btbEntry struct {
	tag    uint64
	target uint64
	valid  bool
	lru    uint64
}

// BTBStats counts target lookups.
type BTBStats struct {
	Lookups uint64
	Hits    uint64
}

// HitRate returns hits per lookup (1.0 when unused).
func (s BTBStats) HitRate() float64 {
	if s.Lookups == 0 {
		return 1
	}
	return float64(s.Hits) / float64(s.Lookups)
}

// Default geometry from Table 1.
const (
	btbEntries = 256
	btbWays    = 4
)

// NewBTB builds the Table 1 BTB.
func NewBTB() *BTB {
	nsets := btbEntries / btbWays
	b := &BTB{sets: make([][]btbEntry, nsets), mask: uint64(nsets - 1)}
	for i := range b.sets {
		b.sets[i] = make([]btbEntry, btbWays)
	}
	return b
}

// Stats returns accumulated statistics.
func (b *BTB) Stats() BTBStats { return b.stats }

// Reset clears contents and statistics.
func (b *BTB) Reset() {
	for i := range b.sets {
		for j := range b.sets[i] {
			b.sets[i][j] = btbEntry{}
		}
	}
	b.stamp = 0
	b.stats = BTBStats{}
}

func (b *BTB) set(pc uint64) []btbEntry { return b.sets[(pc>>2)&b.mask] }

// Lookup returns the cached target for the control instruction at pc.
func (b *BTB) Lookup(pc uint64) (target uint64, ok bool) {
	b.stats.Lookups++
	b.stamp++
	for i := range b.set(pc) {
		e := &b.set(pc)[i]
		if e.valid && e.tag == pc {
			e.lru = b.stamp
			b.stats.Hits++
			return e.target, true
		}
	}
	return 0, false
}

// Update installs or refreshes the target for pc.
func (b *BTB) Update(pc, target uint64) {
	b.stamp++
	set := b.set(pc)
	victim := 0
	for i := range set {
		e := &set[i]
		if e.valid && e.tag == pc {
			e.target = target
			e.lru = b.stamp
			return
		}
		if !set[victim].valid {
			continue
		}
		if !e.valid || e.lru < set[victim].lru {
			victim = i
		}
	}
	set[victim] = btbEntry{tag: pc, target: target, valid: true, lru: b.stamp}
}

// RAS is a per-thread return address stack: 256 entries (Table 1), circular,
// so deep call chains overwrite the oldest entries rather than failing.
type RAS struct {
	stack []uint64
	top   int // number of live entries, capped at len(stack)
	next  int // circular write position
}

// rasEntries is the Table 1 capacity.
const rasEntries = 256

// NewRAS builds a 256-entry return address stack.
func NewRAS() *RAS { return &RAS{stack: make([]uint64, rasEntries)} }

// Reset empties the stack, leaving it as NewRAS built it.
func (r *RAS) Reset() {
	clear(r.stack)
	r.top, r.next = 0, 0
}

// Depth returns the number of live entries.
func (r *RAS) Depth() int { return r.top }

// Push records a return address (on a call).
func (r *RAS) Push(addr uint64) {
	r.stack[r.next] = addr
	r.next = (r.next + 1) % len(r.stack)
	if r.top < len(r.stack) {
		r.top++
	}
}

// Pop predicts the target of a return. ok is false on an empty stack.
func (r *RAS) Pop() (addr uint64, ok bool) {
	if r.top == 0 {
		return 0, false
	}
	r.next = (r.next - 1 + len(r.stack)) % len(r.stack)
	r.top--
	return r.stack[r.next], true
}
