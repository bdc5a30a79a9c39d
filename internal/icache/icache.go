// Package icache implements the L1 instruction cache simulator of Section
// IV-C: a set-associative cache with LRU replacement and parametric size,
// line width, and associativity, exactly as the paper's pintool "creates a
// cache structure with the specified characteristics such as cache size,
// line width, and associativity" and implements LRU.
//
// Accesses follow the fetch model the paper describes: once a line is
// fetched, instructions are extracted sequentially without re-accessing the
// cache until the end of the line or a taken branch — so the simulator
// probes the cache only when fetch crosses into a new line, either
// sequentially or through a taken branch. The package also measures line
// "usefulness": the fraction of distinct bytes of a line actually consumed
// between fill and eviction (the paper reports 71% for HPC at 128B lines
// versus 33% for SPEC CPU INT).
package icache

import (
	"encoding/json"
	"fmt"
	"math/bits"

	"rebalance/internal/isa"
	"rebalance/internal/wire"
)

type line struct {
	tag uint64
	lru uint32
	// used tracks which 8-byte sectors of the line were consumed since
	// fill, for the usefulness metric; 16 sectors cover lines up to 128B.
	used  uint16
	valid bool
}

// Cache is a set-associative instruction cache with LRU replacement.
//
// Line widths and set counts are powers of two, so the per-instruction
// path is shifts and masks: line = pc >> lineShift, set = line & setMask,
// tag = line >> setShift. Sector usage of the line being fetched from
// accumulates in pending and is ORed into the resident line before the
// next probe (which may evict it) and in Finish.
type Cache struct {
	lines []line
	ways  int
	clock uint32

	lineShift uint
	lineMask  uint64
	setShift  uint
	setMask   uint64

	lastLine uint64 // last line address fetched from, +1 (0 = none)
	lastPtr  *line  // resident entry of the line pending belongs to
	pending  uint16 // sectors of lastPtr used since its last probe

	// res accumulates the run's counters; Result() snapshots it.
	res Result
}

// sectorBytes is the granularity of usefulness tracking.
const sectorBytes = 8

// GeometryError reports why a geometry is invalid, or nil if it is usable.
// Line widths (8B to 128B) and set counts (size / line / ways) must be
// powers of two; the associativity need not be.
func GeometryError(sizeBytes, lineBytes, ways int) error {
	if sizeBytes <= 0 || lineBytes <= 0 || ways <= 0 {
		return fmt.Errorf("icache: invalid geometry size=%d line=%d ways=%d", sizeBytes, lineBytes, ways)
	}
	if !isPow2(lineBytes) || lineBytes < sectorBytes || lineBytes > 16*sectorBytes {
		return fmt.Errorf("icache: line width %dB unsupported: line widths must be powers of two from %dB to %dB", lineBytes, sectorBytes, 16*sectorBytes)
	}
	nLines := sizeBytes / lineBytes
	if nLines == 0 || nLines%ways != 0 {
		return fmt.Errorf("icache: size %dB / line %dB not divisible into %d ways", sizeBytes, lineBytes, ways)
	}
	if sets := nLines / ways; !isPow2(sets) {
		return fmt.Errorf("icache: size %dB / line %dB / %d ways gives %d sets: set counts must be powers of two", sizeBytes, lineBytes, ways, sets)
	}
	return nil
}

func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// New returns a cache of sizeBytes with the given line width and
// associativity. Panics on inconsistent geometry, which is a programming
// error in experiment setup.
func New(sizeBytes, lineBytes, ways int) *Cache {
	if err := GeometryError(sizeBytes, lineBytes, ways); err != nil {
		panic(err.Error())
	}
	sets := sizeBytes / lineBytes / ways
	c := &Cache{
		lines:     make([]line, sets*ways),
		ways:      ways,
		lineShift: uint(bits.TrailingZeros(uint(lineBytes))),
		lineMask:  uint64(lineBytes - 1),
		setShift:  uint(bits.TrailingZeros(uint(sets))),
		setMask:   uint64(sets - 1),
	}
	c.res = Result{SizeBytes: sizeBytes, LineBytes: lineBytes, Ways: ways}
	c.res.Name = c.res.geometryName()
	return c
}

// Observe implements trace.Observer through the batch path, so both
// engines run one fetch model.
func (c *Cache) Observe(in isa.Inst) {
	b := [1]isa.Inst{in}
	c.ObserveBatch(b[:])
}

// ObserveBatch implements trace.BatchObserver. Per instruction it costs a
// few shifts and masks; the cache is probed only when fetch enters a new
// line, sequentially, by straddling, or after a taken branch. Instruction
// sizes must be at least 1.
func (c *Cache) ObserveBatch(batch []isa.Inst) {
	lastLine, lastPtr, pending := c.lastLine, c.lastPtr, c.pending
	// Shift counts are masked so the compiler drops its oversized-shift
	// fix-up from the per-instruction path.
	shift, mask := c.lineShift&63, c.lineMask
	var serial int64
	for i := range batch {
		in := &batch[i]
		if in.Serial {
			serial++
		}
		pc := uint64(in.PC)
		lineAddr := pc >> shift
		// Sequential extraction within the current line costs no access.
		if lineAddr+1 != lastLine {
			lastPtr = c.probe(lastPtr, pending, lineAddr, in.Serial)
			lastLine, pending = lineAddr+1, 0
		}
		end := pc + uint64(in.Size) - 1
		if end>>shift == lineAddr {
			pending |= sectors(pc&mask, end&mask)
		} else {
			// The instruction straddles a line boundary; fetching it
			// requires the line holding its last byte too.
			lastPtr = c.probe(lastPtr, pending|sectors(pc&mask, mask), end>>shift, in.Serial)
			lastLine, pending = end>>shift+1, sectors(0, end&mask)
		}
		// A taken branch redirects fetch: the next instruction probes the
		// cache even if the target lands in the same line.
		if in.Taken && in.Kind.IsBranch() {
			lastLine = 0
		}
	}
	c.lastLine, c.lastPtr, c.pending = lastLine, lastPtr, pending
	c.res.Insts[0] += serial
	c.res.Insts[1] += int64(len(batch)) - serial
}

// sectors returns the mask of the sectors holding line offsets first
// through last (first <= last < 128); the shift counts are masked like the
// line shift.
func sectors(first, last uint64) uint16 {
	return uint16(2<<(last/sectorBytes&15) - 1<<(first/sectorBytes&15))
}

// probe folds the sectors used since the last probe into their line,
// which the access may evict, then accesses lineAddr.
func (c *Cache) probe(last *line, used uint16, lineAddr uint64, serial bool) *line {
	if last != nil {
		last.used |= used
	}
	p := 1
	if serial {
		p = 0
	}
	return c.access(lineAddr, p)
}

// access looks up a line address, updating LRU and miss counters, and
// returns the resident entry (after fill on a miss).
func (c *Cache) access(lineAddr uint64, phase int) *line {
	c.res.Accesses[phase]++
	c.clock++
	tag := lineAddr >> c.setShift
	base := int(lineAddr&c.setMask) * c.ways
	set := c.lines[base : base+c.ways]
	for w := range set {
		l := &set[w]
		if l.valid && l.tag == tag {
			l.lru = c.clock
			return l
		}
	}
	c.res.Misses[phase]++
	victim := 0
	for w := range set {
		l := &set[w]
		if !l.valid {
			victim = w
			break
		}
		if l.lru < set[victim].lru {
			victim = w
		}
	}
	c.retire(&set[victim])
	set[victim] = line{valid: true, tag: tag, lru: c.clock}
	return &set[victim]
}

// retire folds a victim line's usage into the usefulness accumulators.
func (c *Cache) retire(l *line) {
	if !l.valid {
		return
	}
	c.res.TotalSectors += int64(c.res.LineBytes / sectorBytes)
	c.res.UsedSectors += int64(bits.OnesCount16(l.used))
}

// Finish retires all resident lines so usefulness covers the whole run.
// Call once after the trace ends; further observation is undefined.
func (c *Cache) Finish() {
	if c.lastPtr != nil {
		c.lastPtr.used |= c.pending
	}
	c.lastLine, c.lastPtr, c.pending = 0, nil, 0
	for i := range c.lines {
		c.retire(&c.lines[i])
		c.lines[i].valid = false
	}
}

// Result snapshots the run's counters as a mergeable, encodable record.
// Call Finish first so the usefulness metric covers still-resident lines.
func (c *Cache) Result() *Result {
	r := c.res
	return &r
}

// Result holds one cache configuration's counters over a stream. It merges
// across shards of the same geometry and encodes as the canonical JSON
// artifact.
type Result struct {
	// Name is the legend name of the geometry.
	Name string
	// SizeBytes, LineBytes, and Ways are the geometry.
	SizeBytes, LineBytes, Ways int
	// Insts, Accesses, and Misses count per phase (0 serial, 1 parallel).
	Insts    [2]int64
	Accesses [2]int64
	Misses   [2]int64
	// UsedSectors and TotalSectors accumulate the usefulness metric over
	// retired lines.
	UsedSectors, TotalSectors int64
}

func (r *Result) geometryName() string {
	return fmt.Sprintf("%dKB, %dB-line, %d-way", r.SizeBytes/1024, r.LineBytes, r.Ways)
}

// MPKI returns I-cache misses per kilo-instruction over the whole stream.
func (r *Result) MPKI() float64 { return r.mpki(0, 1) }

// MPKISerial returns MPKI over serial sections.
func (r *Result) MPKISerial() float64 { return r.mpki(0) }

// MPKIParallel returns MPKI over parallel sections.
func (r *Result) MPKIParallel() float64 { return r.mpki(1) }

func (r *Result) mpki(phases ...int) float64 {
	var insts, miss int64
	for _, p := range phases {
		insts += r.Insts[p]
		miss += r.Misses[p]
	}
	if insts == 0 {
		return 0
	}
	return 1000 * float64(miss) / float64(insts)
}

// MissRate returns misses per cache access.
func (r *Result) MissRate() float64 {
	a := r.Accesses[0] + r.Accesses[1]
	if a == 0 {
		return 0
	}
	return float64(r.Misses[0]+r.Misses[1]) / float64(a)
}

// Usefulness returns the average fraction of distinct line bytes consumed
// between fill and eviction.
func (r *Result) Usefulness() float64 {
	if r.TotalSectors == 0 {
		return 0
	}
	return float64(r.UsedSectors) / float64(r.TotalSectors)
}

// Merge folds another *Result's counters into r. A zero receiver adopts
// the other's geometry; otherwise the geometries must match.
func (r *Result) Merge(other any) error {
	o, ok := other.(*Result)
	if !ok {
		return fmt.Errorf("icache: cannot merge %T into *icache.Result", other)
	}
	if r.SizeBytes == 0 {
		r.Name, r.SizeBytes, r.LineBytes, r.Ways = o.Name, o.SizeBytes, o.LineBytes, o.Ways
	} else if o.SizeBytes != 0 && (o.SizeBytes != r.SizeBytes || o.LineBytes != r.LineBytes || o.Ways != r.Ways) {
		return fmt.Errorf("icache: cannot merge %q into %q", o.Name, r.Name)
	}
	for p := 0; p < 2; p++ {
		r.Insts[p] += o.Insts[p]
		r.Accesses[p] += o.Accesses[p]
		r.Misses[p] += o.Misses[p]
	}
	r.UsedSectors += o.UsedSectors
	r.TotalSectors += o.TotalSectors
	return nil
}

// resultWire is the canonical JSON shape: raw counters plus metrics
// derived from them, so DecodeResult rebuilds a Result from the counters
// alone and re-encoding is byte-identical.
type resultWire struct {
	Name         string   `json:"name"`
	SizeBytes    int      `json:"size_bytes"`
	LineBytes    int      `json:"line_bytes"`
	Ways         int      `json:"ways"`
	Insts        [2]int64 `json:"insts"`
	Accesses     [2]int64 `json:"accesses"`
	Misses       [2]int64 `json:"misses"`
	UsedSectors  int64    `json:"used_sectors"`
	TotalSectors int64    `json:"total_sectors"`
	MPKI         float64  `json:"mpki"`
	MPKISerial   float64  `json:"mpki_serial"`
	MPKIParallel float64  `json:"mpki_parallel"`
	MissRate     float64  `json:"miss_rate"`
	Usefulness   float64  `json:"usefulness"`
}

// EncodeJSON renders the result as its canonical JSON artifact. Array
// counters are indexed [serial, parallel].
func (r *Result) EncodeJSON() ([]byte, error) {
	return json.Marshal(resultWire{
		Name: r.Name, SizeBytes: r.SizeBytes, LineBytes: r.LineBytes, Ways: r.Ways,
		Insts: r.Insts, Accesses: r.Accesses, Misses: r.Misses,
		UsedSectors: r.UsedSectors, TotalSectors: r.TotalSectors,
		MPKI: r.MPKI(), MPKISerial: r.MPKISerial(), MPKIParallel: r.MPKIParallel(),
		MissRate: r.MissRate(), Usefulness: r.Usefulness(),
	})
}

// DecodeResult parses a Result from its canonical JSON artifact, so a
// coordinator can fold shards produced by a remote worker. Unknown fields
// are rejected; derived metrics are recomputed from the counters.
func DecodeResult(data []byte) (*Result, error) {
	var w resultWire
	if err := wire.StrictUnmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("icache: decoding result: %w", err)
	}
	return &Result{
		Name: w.Name, SizeBytes: w.SizeBytes, LineBytes: w.LineBytes, Ways: w.Ways,
		Insts: w.Insts, Accesses: w.Accesses, Misses: w.Misses,
		UsedSectors: w.UsedSectors, TotalSectors: w.TotalSectors,
	}, nil
}
