// Package chunktest holds grid fixtures shared by the tests of more than one
// package.
package chunktest

import (
	"aggcache/internal/chunk"
	"aggcache/internal/schema"
)

// StarGrid is a small star schema that looks nothing like APB-1: four
// dimensions with hierarchy depths 3, 3, 1 and 2, every multi-level
// hierarchy ragged (parents own different numbers of children), and chunk
// boundaries that therefore fall unevenly. It is the cheapest proof that the
// key-translation tables carry no APB-shaped assumption.
func StarGrid() *chunk.Grid {
	date := schema.MustNewDimension("Date", []schema.HierarchySpec{
		{Name: "Year", Card: 2},
		{Name: "Quarter", Card: 5, ParentOf: []int32{0, 0, 0, 1, 1}},
		{Name: "Month", Card: 13, ParentOf: []int32{0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 4, 4}},
	})
	customer := schema.MustNewDimension("Customer", []schema.HierarchySpec{
		{Name: "Region", Card: 3},
		{Name: "Nation", Card: 7, ParentOf: []int32{0, 0, 1, 1, 1, 2, 2}},
		{Name: "City", Card: 17, ParentOf: []int32{0, 0, 0, 1, 1, 2, 2, 2, 2, 3, 4, 4, 5, 5, 5, 6, 6}},
	})
	part := schema.MustNewDimension("Part", []schema.HierarchySpec{{Name: "Brand", Card: 6}})
	supplier := schema.MustNewDimension("Supplier", []schema.HierarchySpec{
		{Name: "Region", Card: 2},
		{Name: "Nation", Card: 5, ParentOf: []int32{0, 0, 1, 1, 1}},
	})
	return chunk.MustNewGrid(schema.MustNew("Revenue", date, customer, part, supplier),
		[][]int{{1, 1, 2, 4}, {1, 1, 3, 5}, {1, 3}, {1, 2, 2}})
}
