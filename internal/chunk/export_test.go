package chunk

// Accessors for the external test package (flatten_test.go imports package
// apb, which imports this one).

// AncestorOffset returns one entry of the per-dimension roll-up tables.
func (g *Grid) AncestorOffset(d, sl, dl int, m int32) uint32 { return g.ancOff[d][sl][dl][m] }

// MapperBytes returns the footprint of the roll-up translation tables. It
// depends only on the schema — never on which (source chunk, destination
// group-by) pairs a workload has rolled up.
func (g *Grid) MapperBytes() int64 {
	var n int64
	for _, bySrc := range g.ancOff {
		for _, byDst := range bySrc {
			for _, tab := range byDst {
				n += int64(len(tab)) * 4
			}
		}
	}
	return n
}
