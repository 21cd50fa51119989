package main

import (
	"bytes"
	"os"
	"testing"
)

// TestOutputGolden: the example prints testdata/out.golden byte for byte.
// To re-record it: go run ./examples/quickstart > examples/quickstart/testdata/out.golden
func TestOutputGolden(t *testing.T) {
	var got bytes.Buffer
	if err := run(&got); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/out.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("output differs from testdata/out.golden:\n%s", got.String())
	}
}
