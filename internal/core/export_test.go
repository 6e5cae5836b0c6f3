package core

import "aggcache/internal/cache"

// NewStorePeer hands the external test package the in-process peer that
// serves exchanges straight from a sibling node's local store.
func NewStorePeer(st cache.Store) cache.Peer { return &storePeer{st: st} }

// withRecycleMinBenefit sets the recycler's admission threshold in saved
// recompute cost (tuples) per byte; tests use it to force admission or
// refusal. Non-positive values keep the default.
func withRecycleMinBenefit(perByte float64) Option {
	return func(o *options) {
		if perByte > 0 {
			o.recycleMinBenefit = perByte
		}
	}
}
