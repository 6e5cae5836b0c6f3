package cache

// CorruptCold overwrites the flags byte of k's cold-tier encoding with one
// the codec rejects, and reports whether k was cold-resident.
func CorruptCold(t *Tiered, k Key) bool {
	e, ok := t.cold.peek(k)
	if ok {
		e.enc[0] = 0xff
	}
	return ok
}
