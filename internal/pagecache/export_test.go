package pagecache

// PoisonScratch switches the scratch guard rail on or off for tests
// outside the package (the ones that drive whole stacks): see
// poisonScratch.
func PoisonScratch(on bool) { poisonScratch.Store(on) }

// HitRatio is hits over lookups; a cache that has seen no lookups
// reports 0, the convention of cachesvc.Stats.HitRatio.
func (s Stats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}
