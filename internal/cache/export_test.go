package cache

// CorruptCold overwrites the flags byte of k's cold-tier encoding with one
// the codec rejects, and reports whether k was cold-resident.
func CorruptCold(c *Sharded, k Key) bool {
	e, ok := c.cold.peek(k)
	if ok {
		e.enc[0] = 0xff
	}
	return ok
}

// hotContains reports residence in the hot tier alone.
func (c *Sharded) hotContains(k Key) bool {
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.entries[k]
	return ok
}

// IsResident reports residence in either tier without touching replacement
// state or counters, and without decoding a cold copy.
func IsResident(c *Sharded, k Key) bool { return c.hotContains(k) || c.cold.contains(k) }

// hotUsed returns the bytes charged to the hot tier alone.
func (c *Sharded) hotUsed() int64 { return c.used.Load() }

// hotLen returns the number of hot-tier residents.
func (c *Sharded) hotLen() int { return int(c.resident.Load()) }

// freezeBoundary pins the split between c's tiers where it is: no event
// moves it afterwards.
func freezeBoundary(c *Sharded) {
	c.cold.mu.Lock()
	defer c.cold.mu.Unlock()
	c.cold.frozen = true
}

// split reads c's shares and the bytes charged against them in one hold of
// the cold tier's lock, under which the shares cannot move.
func (c *Sharded) split() (hotShare, hotUsed, coldShare, coldUsed, coldHeld int64) {
	c.cold.mu.Lock()
	defer c.cold.mu.Unlock()
	return c.hotCap.Load(), c.used.Load(), c.cold.shareLocked(), c.cold.used, c.cold.held
}

// dualResident reports whether k is resident in both tiers, read under k's
// stripe lock, which serializes every tier transition of k.
func (c *Sharded) dualResident(k Key) bool {
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	_, hot := s.entries[k]
	return hot && c.cold.contains(k)
}
