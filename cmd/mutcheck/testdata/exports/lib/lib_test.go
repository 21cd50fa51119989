package lib

import "testing"

func TestName(t *testing.T) {
	if (TestOnly{}).Name() != "test only" {
		t.Fatal("name")
	}
}

func TestVerbose(t *testing.T) {
	if cfg := (Config{Verbose: true}); !cfg.Verbose {
		t.Fatal("verbose")
	}
}
