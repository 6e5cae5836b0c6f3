package core

import "aggcache/internal/cache"

// NewStorePeer hands the external test package the in-process peer that
// serves exchanges straight from a sibling node's local store.
func NewStorePeer(st cache.Store) cache.Peer { return &storePeer{st: st} }
