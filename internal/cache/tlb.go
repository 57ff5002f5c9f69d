package cache

import (
	"fmt"
	"math/bits"
)

// TLB is a fully associative translation lookaside buffer with true-LRU
// replacement (paper Table 1: 48-entry I-TLB, 128-entry D-TLB, 300-cycle
// miss penalty).
//
// Lookup is O(1): a page→entry index plus an intrusive MRU⇄LRU list
// replace the naive scan of every entry on every access (the TLB is
// consulted by each fetch, load and store, so the scan dominated the
// simulator's memory-access cost). Replacement picks exactly the victim
// the scan-based reference picked: while the TLB is filling, the
// highest-index invalid entry; once full, the least recently used entry
// (stamps are unique, so LRU order is total and the list tail is the
// unique minimum-stamp entry).
type TLB struct {
	entries    []way
	prev, next []int32 // intrusive LRU list links
	head, tail int32   // most / least recently used; -1 when empty
	fillNext   int32   // next invalid entry to allocate, descending
	pageShift  uint
	stamp      uint64
	stats      Stats

	// Open-addressing page index (linear probing, backward-shift
	// deletion): resident page -> entry index. At most len(entries) keys
	// live in a 4x-sized power-of-two table, so probes are short and the
	// lookup — one per fetch, load and store — stays allocation- and
	// indirection-free (a Go map's hashing dominated this path).
	keys      []uint64
	vals      []int32 // -1 = empty slot
	imask     uint32
	hashShift uint
}

// DefaultPageBytes is the page size used for translations.
const DefaultPageBytes = 8192

// NewTLB builds a TLB with the given number of entries and page size.
func NewTLB(entries, pageBytes int) *TLB {
	if entries <= 0 {
		panic(fmt.Sprintf("cache: TLB entries %d must be positive", entries))
	}
	if pageBytes <= 0 || pageBytes&(pageBytes-1) != 0 {
		panic(fmt.Sprintf("cache: page size %d must be a positive power of two", pageBytes))
	}
	t := &TLB{
		entries: make([]way, entries),
		prev:    make([]int32, entries),
		next:    make([]int32, entries),
	}
	for ps := pageBytes; ps > 1; ps >>= 1 {
		t.pageShift++
	}
	t.reset()
	return t
}

// Stats returns a copy of the accumulated statistics.
func (t *TLB) Stats() Stats { return t.stats }

// Reset clears contents and statistics, leaving the TLB as NewTLB built
// it.
func (t *TLB) Reset() {
	clear(t.entries)
	clear(t.prev)
	clear(t.next)
	t.stamp = 0
	t.stats = Stats{}
	t.reset()
}

// reset empties the LRU list and the page index, allocating the index on
// first use.
func (t *TLB) reset() {
	size := 4
	for size < 4*len(t.entries) {
		size <<= 1
	}
	if len(t.keys) != size {
		t.keys = make([]uint64, size)
		t.vals = make([]int32, size)
	}
	clear(t.keys)
	for i := range t.vals {
		t.vals[i] = -1
	}
	t.imask = uint32(size - 1)
	t.hashShift = 64 - uint(bits.TrailingZeros(uint(size)))
	t.head, t.tail = -1, -1
	t.fillNext = int32(len(t.entries)) - 1
}

// hashPage spreads page numbers over the index table (Fibonacci hashing).
func (t *TLB) hashPage(page uint64) uint32 {
	return uint32((page * 0x9e3779b97f4a7c15) >> t.hashShift)
}

// lookup returns the entry index holding page, or -1.
func (t *TLB) lookup(page uint64) int32 {
	i := t.hashPage(page)
	for {
		v := t.vals[i]
		if v < 0 {
			return -1
		}
		if t.keys[i] == page {
			return v
		}
		i = (i + 1) & t.imask
	}
}

// insert adds page -> e; the caller guarantees page is absent and the
// table has room (it holds at most len(entries) keys in 4x slots).
func (t *TLB) insert(page uint64, e int32) {
	i := t.hashPage(page)
	for t.vals[i] >= 0 {
		i = (i + 1) & t.imask
	}
	t.keys[i] = page
	t.vals[i] = e
}

// remove deletes page from the index using backward-shift deletion, which
// keeps probe chains contiguous without tombstones.
func (t *TLB) remove(page uint64) {
	i := t.hashPage(page)
	for {
		if t.vals[i] < 0 {
			return // not present (cannot happen for resident pages)
		}
		if t.keys[i] == page {
			break
		}
		i = (i + 1) & t.imask
	}
	j := i
	for {
		j = (j + 1) & t.imask
		if t.vals[j] < 0 {
			break
		}
		h := t.hashPage(t.keys[j])
		// Shift j back into i unless j's natural position lies cyclically
		// after i (then the chain from h to j does not pass through i).
		if (j-h)&t.imask >= (j-i)&t.imask {
			t.keys[i] = t.keys[j]
			t.vals[i] = t.vals[j]
			i = j
		}
	}
	t.vals[i] = -1
}

// pushHead links entry i (not currently in the list) at the MRU end.
func (t *TLB) pushHead(i int32) {
	t.prev[i] = -1
	t.next[i] = t.head
	if t.head != -1 {
		t.prev[t.head] = i
	}
	t.head = i
	if t.tail == -1 {
		t.tail = i
	}
}

// moveToHead relinks an in-list entry at the MRU end.
func (t *TLB) moveToHead(i int32) {
	if t.head == i {
		return
	}
	if t.prev[i] != -1 {
		t.next[t.prev[i]] = t.next[i]
	}
	if t.next[i] != -1 {
		t.prev[t.next[i]] = t.prev[i]
	}
	if t.tail == i {
		t.tail = t.prev[i]
	}
	t.pushHead(i)
}

// Access translates addr, reporting whether the page was resident and
// allocating the entry on a miss.
func (t *TLB) Access(addr uint64) (hit bool) {
	t.stats.Accesses++
	t.stamp++
	page := addr >> t.pageShift
	if i := t.lookup(page); i >= 0 {
		t.entries[i].lru = t.stamp
		t.moveToHead(i)
		return true
	}
	t.stats.Misses++
	var victim int32
	if t.fillNext >= 0 {
		victim = t.fillNext
		t.fillNext--
		t.pushHead(victim)
	} else {
		victim = t.tail
		t.remove(t.entries[victim].tag)
		t.moveToHead(victim)
	}
	t.entries[victim] = way{tag: page, valid: true, lru: t.stamp}
	t.insert(page, victim)
	return false
}

// Probe reports residency without modifying state.
func (t *TLB) Probe(addr uint64) bool {
	return t.lookup(addr>>t.pageShift) >= 0
}
