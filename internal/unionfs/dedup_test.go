package unionfs

import (
	"bytes"
	"testing"

	"cntr/internal/blobstore"
	"cntr/internal/memfs"
	"cntr/internal/vfs"
)

// TestCopyUpDedupsOnSharedStore: when the upper layer shares a
// content-addressed store with the lower layer, copy-up re-stores the
// file's exact content — so it must cost no new physical bytes, only
// new references to the lower layer's chunks.
func TestCopyUpDedupsOnSharedStore(t *testing.T) {
	cas := blobstore.NewCAS(blobstore.CASOptions{})
	lower := memfs.New(memfs.Options{Store: cas})
	loCli := vfs.NewClient(lower, vfs.Root())
	content := bytes.Repeat([]byte("libc"), 4096) // 4 blocks
	if err := loCli.MkdirAll("/lib", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := loCli.WriteFile("/lib/libc", content, 0o644); err != nil {
		t.Fatal(err)
	}
	physBefore := cas.Stats().PhysicalBytes

	u := NewWith(Options{Store: cas}, lower)
	cli := vfs.NewClient(u, vfs.Root())
	// Chmod forces a full copy-up without changing any content byte.
	if err := cli.Chmod("/lib/libc", 0o700); err != nil {
		t.Fatal(err)
	}
	// The upper layer now holds its own copy...
	upCli := vfs.NewClient(u.upper, vfs.Root())
	if got, err := upCli.ReadFile("/lib/libc"); err != nil || !bytes.Equal(got, content) {
		t.Fatalf("copy-up missing from upper: %v", err)
	}
	// ...yet the store grew by nothing.
	if physAfter := cas.Stats().PhysicalBytes; physAfter != physBefore {
		t.Fatalf("copy-up cost %d physical bytes on a shared store",
			physAfter-physBefore)
	}
	if got, err := cli.ReadFile("/lib/libc"); err != nil || !bytes.Equal(got, content) {
		t.Fatalf("union read after copy-up: %v", err)
	}

	// A one-byte modification after copy-up costs at most one chunk.
	f, err := cli.Open("/lib/libc", vfs.OWronly, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("X"), 0); err != nil {
		t.Fatal(err)
	}
	f.Close()
	grown := cas.Stats().PhysicalBytes - physBefore
	if grown <= 0 || grown > 4096 {
		t.Fatalf("one-byte edit grew store by %d bytes, want (0, 4096]", grown)
	}
}

// TestPrivateUpperStillCorrect pins that the store option changes cost,
// never semantics: the same sequence on a private upper store behaves
// identically apart from physical accounting.
func TestPrivateUpperStillCorrect(t *testing.T) {
	lower := makeLayer(t, map[string]string{"/etc/conf": "lower"})
	u := NewWith(Options{}, lower)
	cli := vfs.NewClient(u, vfs.Root())
	if err := cli.Chmod("/etc/conf", 0o600); err != nil {
		t.Fatal(err)
	}
	got, err := cli.ReadFile("/etc/conf")
	if err != nil || string(got) != "lower" {
		t.Fatalf("got %q, %v", got, err)
	}
}
