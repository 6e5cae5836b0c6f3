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
