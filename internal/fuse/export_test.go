package fuse

// PoisonReleased switches the recycling guard rail on or off for tests
// outside the package (the ones that drive whole stacks): see
// poisonReleased.
func PoisonReleased(on bool) { poisonReleased.Store(on) }

// HeldFrames reports the payload-sized buffers c holds for its next
// requests, each by the address of its storage: a request that reuses
// one gives the same storage back, one that made its own does not.
func HeldFrames(c *Conn) map[*byte]bool {
	c.framesMu.Lock()
	defer c.framesMu.Unlock()
	held := make(map[*byte]bool, len(c.frames))
	for _, b := range c.frames {
		held[&b[:1][0]] = true
	}
	return held
}

// depth reports how many frames are waiting to be read, interrupts
// included.
func (t *reqTable) depth() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n + len(t.interrupts)
}
