package lib

import "testing"

func TestName(t *testing.T) {
	if (TestOnly{}).Name() != "test only" {
		t.Fatal("name")
	}
}

func TestDepth(t *testing.T) {
	cfg := Config{Depth: 5}
	if cfg.Defaults(); cfg.Depth != 5 {
		t.Fatal("depth")
	}
}

func TestVerbose(t *testing.T) {
	if cfg := (Config{Verbose: true}); !cfg.Verbose {
		t.Fatal("verbose")
	}
}
