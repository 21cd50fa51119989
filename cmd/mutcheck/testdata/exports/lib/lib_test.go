package lib

import "testing"

func TestName(t *testing.T) {
	if (TestOnly{}).Name() != "test only" {
		t.Fatal("name")
	}
}
