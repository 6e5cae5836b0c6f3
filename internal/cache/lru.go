package cache

// LRU is an exact least-recently-used replacement policy, provided as a
// baseline against the paper's benefit-weighted CLOCK (which approximates
// LRU) and the two-level policy. It ignores benefits and classes.
type LRU struct {
	head, tail *Entry // head = most recent
	n          int
}

// NewLRU returns the baseline policy.
func NewLRU() *LRU { return &LRU{} }

// Name implements Policy.
func (p *LRU) Name() string { return "lru" }

// Added implements Policy.
func (p *LRU) Added(e *Entry) { p.pushFront(e) }

// Removed implements Policy.
func (p *LRU) Removed(e *Entry) { p.unlink(e) }

// Accessed implements Policy.
func (p *LRU) Accessed(e *Entry) {
	p.unlink(e)
	p.pushFront(e)
}

// Reinforced implements Policy: treated as an access.
func (p *LRU) Reinforced(e *Entry, benefit float64) { p.Accessed(e) }

// NextVictim implements Policy: the least recently used unpinned entry.
func (p *LRU) NextVictim(Class) *Entry {
	for e := p.tail; e != nil; e = e.prev {
		if !e.Pinned() {
			return e
		}
	}
	return nil
}

// Fork implements Policy.
func (p *LRU) Fork() Policy { return NewLRU() }

func (p *LRU) pushFront(e *Entry) {
	e.prev = nil
	e.next = p.head
	if p.head != nil {
		p.head.prev = e
	}
	p.head = e
	if p.tail == nil {
		p.tail = e
	}
	p.n++
}

func (p *LRU) unlink(e *Entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		p.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		p.tail = e.prev
	}
	e.prev, e.next = nil, nil
	p.n--
}
