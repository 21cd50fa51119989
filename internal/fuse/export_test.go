package fuse

// PoisonReleased switches the recycling guard rail on or off for tests
// outside the package (the ones that drive whole stacks): see
// poisonReleased.
func PoisonReleased(on bool) { poisonReleased.Store(on) }

// FramesReused reports how many requests on c took a payload-sized
// buffer an earlier request had given back to c.
func FramesReused(c *Conn) int64 {
	c.framesMu.Lock()
	defer c.framesMu.Unlock()
	return c.framesReused
}
