package fuse

// PoisonReleased switches the recycling guard rail on or off for tests
// outside the package (the ones that drive whole stacks): see
// poisonReleased.
func PoisonReleased(on bool) { poisonReleased.Store(on) }
