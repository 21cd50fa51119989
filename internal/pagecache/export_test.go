package pagecache

// PoisonScratch switches the scratch guard rail on or off for tests
// outside the package (the ones that drive whole stacks): see
// poisonScratch.
func PoisonScratch(on bool) { poisonScratch.Store(on) }
