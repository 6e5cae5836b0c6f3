package strategy

// SetEpoch positions VCMC's propagation epoch, so a test can force the
// worklist-mark wraparound within a few operations.
func (s *VCMC) SetEpoch(e uint32) { s.epoch = e }

// Epoch returns VCMC's propagation epoch.
func (s *VCMC) Epoch() uint32 { return s.epoch }
