package mem

// LineState is the MSI coherence state of one cache line copy.
type LineState int8

const (
	Invalid LineState = iota
	Shared
	Modified
)

func (s LineState) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Modified:
		return "M"
	}
	return "?"
}

// line is one way of one set in a tag array, packed into 16 bytes so a
// 2-way set fills 32 and never straddles a host cache line. meta is the
// LRU timestamp shifted over the LineState: every use stamps a fresh clock
// value, so the smallest meta in a full set is its least recently used way.
type line struct {
	tag  uint64
	meta uint64 // lastUse<<2 | LineState
}

func (l *line) state() LineState { return LineState(l.meta & 3) }

// holds reports whether l is a valid copy of line address la.
func (l *line) holds(la uint64) bool { return l.tag == la && l.meta&3 != 0 }

const blockSets = 64 // sets per tag block

// Cache is a set-associative tag/state array. It holds no data (see the
// package comment); it models presence, permission and replacement. Sets
// live in set-major blocks of blockSets sets (fewer in a smaller cache),
// each allocated by the first Insert into it. A block never allocated reads
// as every way Invalid, so the tags of the many caches a short cell barely
// touches cost almost nothing.
type Cache struct {
	shift    uint // log2 of the line size
	mask     uint64
	ways     int
	useClock uint64
	hot      uint64   // index of hotB, the block set last read
	hotB     []line   // spares same-block lookups (fetch) a load of blocks
	blocks   [][]line // nil until the first Insert into the block
	sets     int
}

// NewCache builds a cache of totalBytes capacity with the given
// associativity and line size. totalBytes must divide evenly. Geometry is
// normally rejected earlier by Config.Validate; a direct misuse panics with
// an error wrapping ErrConfig so pool workers can recover it as a config
// fault.
func NewCache(name string, totalBytes, ways, lineBytes int) *Cache {
	if err := checkGeometry(name, totalBytes, ways, lineBytes); err != nil {
		panic(err)
	}
	sets := totalBytes / (ways * lineBytes)
	shift := uint(0)
	for 1<<shift < lineBytes {
		shift++
	}
	return &Cache{
		sets:   sets,
		ways:   ways,
		shift:  shift,
		mask:   uint64(sets - 1),
		blocks: make([][]line, (sets+blockSets-1)/blockSets),
	}
}

// LineAddr returns the line-aligned address containing addr.
func (c *Cache) LineAddr(addr uint64) uint64 { return addr >> c.shift << c.shift }

// set returns the ways of the set holding line address la, or nil when its
// block was never allocated.
func (c *Cache) set(la uint64) []line {
	si := (la >> c.shift) & c.mask
	b := c.hotB
	if si/blockSets != c.hot || b == nil {
		if b = c.blocks[si/blockSets]; b == nil {
			return nil
		}
		c.hot, c.hotB = si/blockSets, b
	}
	i := int(si%blockSets) * c.ways
	return b[i : i+c.ways]
}

// Lookup returns the state of the line containing addr (Invalid if absent)
// and refreshes its LRU position when present.
func (c *Cache) Lookup(addr uint64) LineState {
	la := c.LineAddr(addr)
	s := c.set(la)
	for i := range s {
		if s[i].holds(la) {
			c.useClock++
			s[i].meta = c.useClock<<2 | s[i].meta&3
			return s[i].state()
		}
	}
	return Invalid
}

// Peek is Lookup without the LRU update.
func (c *Cache) Peek(addr uint64) LineState {
	la := c.LineAddr(addr)
	s := c.set(la)
	for i := range s {
		if s[i].holds(la) {
			return s[i].state()
		}
	}
	return Invalid
}

// SetState changes the state of a present line; it is a no-op if the line is
// absent (silent-eviction races make that legal).
func (c *Cache) SetState(addr uint64, st LineState) {
	la := c.LineAddr(addr)
	s := c.set(la)
	for i := range s {
		if s[i].holds(la) {
			if st == Invalid {
				s[i] = line{}
			} else {
				s[i].meta = s[i].meta&^3 | uint64(st)
			}
			return
		}
	}
}

// Victim describes a line displaced by Insert.
type Victim struct {
	Addr  uint64
	Dirty bool // state was Modified
	Valid bool
}

// Insert places the line containing addr with the given state, evicting the
// LRU way if the set is full. It returns the victim, if any. Inserting a
// line that is already present just updates its state.
func (c *Cache) Insert(addr uint64, st LineState) Victim {
	la := c.LineAddr(addr)
	s := c.set(la)
	if s == nil {
		c.blocks[((la>>c.shift)&c.mask)/blockSets] = make([]line, min(c.sets, blockSets)*c.ways)
		s = c.set(la)
	}
	c.useClock++
	meta := c.useClock<<2 | uint64(st)
	// Already present?
	for i := range s {
		if s[i].holds(la) {
			s[i].meta = meta
			return Victim{}
		}
	}
	// Free way?
	for i := range s {
		if s[i].state() == Invalid {
			s[i] = line{tag: la, meta: meta}
			return Victim{}
		}
	}
	// Evict LRU.
	vi := 0
	for i := 1; i < len(s); i++ {
		if s[i].meta < s[vi].meta {
			vi = i
		}
	}
	v := Victim{Addr: s[vi].tag, Dirty: s[vi].state() == Modified, Valid: true}
	s[vi] = line{tag: la, meta: meta}
	return v
}

// Invalidate removes the line containing addr, returning whether it was
// present and whether it was dirty.
func (c *Cache) Invalidate(addr uint64) (present, dirty bool) {
	la := c.LineAddr(addr)
	s := c.set(la)
	for i := range s {
		if s[i].holds(la) {
			dirty = s[i].state() == Modified
			s[i] = line{}
			return true, dirty
		}
	}
	return false, false
}

// CacheLine describes one valid line in a snapshot.
type CacheLine struct {
	Addr  uint64
	State LineState
}

// Snapshot enumerates every valid line in set-then-way order. It is
// side-effect-free (no LRU or counter updates) so the sanitizer can walk
// the array without perturbing replacement behaviour.
func (c *Cache) Snapshot() []CacheLine {
	var out []CacheLine
	for _, b := range c.blocks { // blocks in index order, each set-major: set-then-way
		for i := range b {
			if st := b[i].state(); st != Invalid {
				out = append(out, CacheLine{Addr: b[i].tag, State: st})
			}
		}
	}
	return out
}
