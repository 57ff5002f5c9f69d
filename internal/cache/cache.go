// Package cache models the memory subsystem the paper's configurations
// share across all pipelines: banked set-associative L1 instruction and data
// caches, a unified L2, instruction/data TLBs and main memory (paper
// Table 1). Latencies are cycle counts returned to the timing model; the
// caches themselves are stateful so that the reference streams of co-running
// threads genuinely interfere, which is what the MEM workloads stress.
package cache

import "fmt"

// Config describes one cache level.
type Config struct {
	Name      string
	SizeBytes int
	LineBytes int
	Assoc     int
	Banks     int // simultaneous accesses per cycle (one per bank)
}

// check validates the geometry.
func (c *Config) check() error {
	switch {
	case c.SizeBytes <= 0, c.LineBytes <= 0, c.Assoc <= 0, c.Banks <= 0:
		return fmt.Errorf("cache %s: non-positive geometry %+v", c.Name, *c)
	case c.SizeBytes%(c.LineBytes*c.Assoc) != 0:
		return fmt.Errorf("cache %s: size %d not divisible by line*assoc", c.Name, c.SizeBytes)
	case c.LineBytes&(c.LineBytes-1) != 0:
		return fmt.Errorf("cache %s: line size %d not a power of two", c.Name, c.LineBytes)
	}
	sets := c.SizeBytes / (c.LineBytes * c.Assoc)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %s: set count %d not a power of two", c.Name, sets)
	}
	if c.Banks&(c.Banks-1) != 0 {
		return fmt.Errorf("cache %s: bank count %d not a power of two", c.Name, c.Banks)
	}
	return nil
}

// way is one cache line's bookkeeping.
type way struct {
	tag   uint64
	valid bool
	lru   uint64 // last-touch stamp; larger = more recent
}

// Cache is a banked set-associative cache with true-LRU replacement.
// It models tags only (trace-driven timing simulation needs no data).
type Cache struct {
	cfg Config
	// ways holds every set's ways back to back: set s is
	// ways[s*assoc : (s+1)*assoc]. One flat array spares Access the load
	// of a per-set slice header.
	ways      []way
	assoc     int
	setMask   uint64
	bankMask  uint64
	lineShift uint
	stamp     uint64

	// Bank accounting: the cycle each bank last served, and how many
	// accesses it has served that cycle (1 per bank per cycle).
	bankCycle []uint64
	bankUsed  []int

	stats Stats
}

// Stats aggregates cache activity.
type Stats struct {
	Accesses      uint64
	Misses        uint64
	BankConflicts uint64
}

// MissRate returns misses per access, or 0 with no accesses.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// New constructs a cache; it panics on invalid geometry (configurations are
// compile-time constants in this simulator, so a bad one is a programming
// error, not an input error).
func New(cfg Config) *Cache {
	if err := cfg.check(); err != nil {
		panic(err)
	}
	nsets := cfg.SizeBytes / (cfg.LineBytes * cfg.Assoc)
	c := &Cache{
		cfg:       cfg,
		ways:      make([]way, nsets*cfg.Assoc),
		assoc:     cfg.Assoc,
		setMask:   uint64(nsets - 1),
		bankMask:  uint64(cfg.Banks - 1),
		bankCycle: make([]uint64, cfg.Banks),
		bankUsed:  make([]int, cfg.Banks),
	}
	for ls := cfg.LineBytes; ls > 1; ls >>= 1 {
		c.lineShift++
	}
	return c
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// Reset clears contents and statistics, leaving the cache as New built it.
func (c *Cache) Reset() {
	clear(c.ways)
	clear(c.bankCycle)
	clear(c.bankUsed)
	c.stamp = 0
	c.stats = Stats{}
}

// set returns the ways of set s.
func (c *Cache) set(s uint64) []way {
	base := int(s) * c.assoc
	return c.ways[base : base+c.assoc : base+c.assoc]
}

// split returns the set index and tag of addr. The full line address is used
// as the tag, which is simpler than masking and equally correct.
func (c *Cache) split(addr uint64) (set uint64, tag uint64) {
	line := addr >> c.lineShift
	return line & c.setMask, line
}

// Access looks up addr at the given cycle, allocating on miss, and reports
// whether it hit plus any extra delay cycles from bank contention. Banks are
// selected by line address; a bank serves one access per cycle, and a second
// access in the same cycle is delayed by one cycle (the paper's 8-banked
// caches make this rare).
func (c *Cache) Access(addr uint64, cycle uint64) (hit bool, extraDelay int) {
	c.stats.Accesses++
	c.stamp++

	line := addr >> c.lineShift
	bank := line & c.bankMask
	if c.bankCycle[bank] == cycle {
		c.bankUsed[bank]++
		extraDelay = c.bankUsed[bank] - 1
		if extraDelay > 0 {
			c.stats.BankConflicts++
		}
	} else {
		c.bankCycle[bank] = cycle
		c.bankUsed[bank] = 1
	}

	set, tag := c.split(addr)
	ways := c.set(set)
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			ways[i].lru = c.stamp
			return true, extraDelay
		}
	}
	c.stats.Misses++
	// Allocate: victim = invalid way, else least recently used.
	victim := 0
	for i := range ways {
		if !ways[i].valid {
			victim = i
			break
		}
		if ways[i].lru < ways[victim].lru {
			victim = i
		}
	}
	ways[victim] = way{tag: tag, valid: true, lru: c.stamp}
	return false, extraDelay
}

// Probe looks up addr without modifying cache state or statistics.
func (c *Cache) Probe(addr uint64) bool {
	set, tag := c.split(addr)
	for _, w := range c.set(set) {
		if w.valid && w.tag == tag {
			return true
		}
	}
	return false
}
