// Package lib is TestGuardFixture's library: the exports the guard
// must judge.
package lib

// Used has a Name the program calls.
type Used struct{}

// Name is called by the program.
func (Used) Name() string { return "used" }

// TestOnly has a Name only a test calls. A name-based count sees
// Used.Name's call and misses it.
type TestOnly struct{}

// Name is called by lib_test.go alone.
func (TestOnly) Name() string { return "test only" }

// Describer is an interface of the program.
type Describer interface{ Describe() string }

// ViaInterface is used only through Describer.
type ViaInterface struct{}

// Describe is never named outside its declaration; Show calls it
// through Describer.
func (ViaInterface) Describe() string { return "via interface" }

// Show renders d.
func Show(d Describer) string { return d.Describe() }

// Config is the program's configuration; the program reads every field.
type Config struct {
	// Verbose is set by lib_test.go alone.
	Verbose bool
	// Limit is set by the program only through &, as flag.IntVar does.
	Limit int
	// Hits is set by the program only through an index.
	Hits [2]int
	// Depth is set by lib_test.go, and by the program only as its own
	// default in Defaults.
	Depth int
}

// Defaults fills in the fields left zero.
func (c *Config) Defaults() {
	if c.Depth <= 0 {
		c.Depth = 3
	}
}
