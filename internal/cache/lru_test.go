package cache

import "testing"

func TestLRUEvictsLeastRecent(t *testing.T) {
	c, _ := New(700, NewLRU()) // room for two 10-cell chunks
	c.Insert(key(1), mkChunk(0, 1, 10), AsBackend(1))
	c.Insert(key(2), mkChunk(0, 2, 10), AsBackend(1))
	// Touch 1 so 2 becomes the LRU victim.
	if _, ok := c.Get(key(1)); !ok {
		t.Fatalf("Get(1) missed")
	}
	if !c.Insert(key(3), mkChunk(0, 3, 10), AsBackend(1)) {
		t.Fatalf("insert denied")
	}
	if !IsResident(c, key(1)) || IsResident(c, key(2)) {
		t.Fatalf("LRU evicted the wrong entry")
	}
}

func TestLRURespectsPins(t *testing.T) {
	c, _ := New(700, NewLRU())
	c.Insert(key(1), mkChunk(0, 1, 10), AsBackend(1))
	c.Insert(key(2), mkChunk(0, 2, 10), AsBackend(1))
	c.Pin(key(1)) // 1 is the LRU entry but pinned
	if !c.Insert(key(3), mkChunk(0, 3, 10), AsBackend(1)) {
		t.Fatalf("insert denied")
	}
	if !IsResident(c, key(1)) || IsResident(c, key(2)) {
		t.Fatalf("pinned LRU entry was evicted")
	}
	c.Pin(key(1))
	c.Pin(key(3))
	if c.Insert(key(4), mkChunk(0, 4, 10), AsBackend(1)) {
		t.Fatalf("insert admitted with everything pinned")
	}
}

func TestLRUReinforceCountsAsAccess(t *testing.T) {
	c, _ := New(700, NewLRU())
	c.Insert(key(1), mkChunk(0, 1, 10), AsComputed(1))
	c.Insert(key(2), mkChunk(0, 2, 10), AsComputed(1))
	c.Reinforce([]Key{key(1)}, 100)
	if !c.Insert(key(3), mkChunk(0, 3, 10), AsComputed(1)) {
		t.Fatalf("insert denied")
	}
	if !IsResident(c, key(1)) || IsResident(c, key(2)) {
		t.Fatalf("reinforced entry was evicted")
	}
	if NewLRU().Name() != "lru" {
		t.Fatalf("Name = %q", NewLRU().Name())
	}
}

// TestNewPolicyByName: every accepted name builds the policy of that Name,
// and an unknown one is an error.
func TestNewPolicyByName(t *testing.T) {
	for _, name := range []string{"benefit", "two-level", "two-level-promote", "lru"} {
		p, err := NewPolicy(name)
		if err != nil {
			t.Fatalf("NewPolicy(%s): %v", name, err)
		}
		if p.Name() != name {
			t.Fatalf("NewPolicy(%s) built %s", name, p.Name())
		}
	}
	if _, err := NewPolicy("bogus"); err == nil {
		t.Fatalf("NewPolicy(bogus): expected error")
	}
}
