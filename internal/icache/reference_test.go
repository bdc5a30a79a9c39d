package icache

import "rebalance/internal/isa"

// refCache is the division-based, per-instruction, per-sector model the
// shift/mask kernel replaced, kept verbatim as the executable
// specification the differential tests hold Cache to. It divides by the
// runtime line width and set count, so it accepts any geometry the old
// GeometryError did; the tests only feed it power-of-two geometries.
type refCache struct {
	sets  int
	lines []refLine
	clock uint32

	lastLine uint64 // last line address fetched from, +1 (0 = none)
	lastPtr  *refLine

	res Result
}

type refLine struct {
	valid bool
	tag   uint64
	lru   uint32
	used  uint16
}

func newRef(sizeBytes, lineBytes, ways int) *refCache {
	c := &refCache{
		sets:  sizeBytes / lineBytes / ways,
		lines: make([]refLine, sizeBytes/lineBytes),
	}
	c.res = Result{SizeBytes: sizeBytes, LineBytes: lineBytes, Ways: ways}
	c.res.Name = c.res.geometryName()
	return c
}

func (c *refCache) Observe(in isa.Inst) {
	p := 0
	if !in.Serial {
		p = 1
	}
	c.res.Insts[p]++

	lineBytes := uint64(c.res.LineBytes)
	lineAddr := uint64(in.PC) / lineBytes
	if lineAddr+1 != c.lastLine {
		c.lastPtr = c.access(lineAddr, p)
		c.lastLine = lineAddr + 1
	}
	c.markUse(c.lastPtr, uint64(in.PC), int(in.Size))

	endAddr := uint64(in.PC) + uint64(in.Size) - 1
	if endLine := endAddr / lineBytes; endLine != lineAddr {
		c.lastPtr = c.access(endLine, p)
		c.lastLine = endLine + 1
		c.markUse(c.lastPtr, endLine*lineBytes, int(endAddr%lineBytes)+1)
	}

	if in.Kind.IsBranch() && in.Taken {
		c.lastLine = 0
		c.lastPtr = nil
	}
}

func (c *refCache) access(lineAddr uint64, phase int) *refLine {
	c.res.Accesses[phase]++
	c.clock++
	ways := c.res.Ways
	set := int(lineAddr % uint64(c.sets))
	tag := lineAddr / uint64(c.sets)
	base := set * ways
	for w := 0; w < ways; w++ {
		l := &c.lines[base+w]
		if l.valid && l.tag == tag {
			l.lru = c.clock
			return l
		}
	}
	c.res.Misses[phase]++
	victim := base
	for w := 0; w < ways; w++ {
		l := &c.lines[base+w]
		if !l.valid {
			victim = base + w
			break
		}
		if l.lru < c.lines[victim].lru {
			victim = base + w
		}
	}
	c.retire(&c.lines[victim])
	c.lines[victim] = refLine{valid: true, tag: tag, lru: c.clock}
	return &c.lines[victim]
}

func (c *refCache) markUse(l *refLine, pc uint64, size int) {
	if l == nil || !l.valid {
		return
	}
	off := int(pc % uint64(c.res.LineBytes))
	first := off / sectorBytes
	last := (off + size - 1) / sectorBytes
	if last >= c.res.LineBytes/sectorBytes {
		last = c.res.LineBytes/sectorBytes - 1
	}
	for s := first; s <= last; s++ {
		l.used |= 1 << s
	}
}

func (c *refCache) retire(l *refLine) {
	if !l.valid {
		return
	}
	c.res.TotalSectors += int64(c.res.LineBytes / sectorBytes)
	n := 0
	for x := l.used; x != 0; x &= x - 1 {
		n++
	}
	c.res.UsedSectors += int64(n)
}

func (c *refCache) Finish() {
	for i := range c.lines {
		c.retire(&c.lines[i])
		c.lines[i].valid = false
	}
}

func (c *refCache) Result() *Result {
	r := c.res
	return &r
}
