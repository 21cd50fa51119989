package container

import (
	"testing"

	"cntr/internal/blobstore"
	"cntr/internal/sim"
	"cntr/internal/vfs"
)

// sharedBase is a layer spec two images have in common; padding content
// depends only on the path, so rebuilding it produces identical bytes.
func sharedBase() LayerSpec {
	return LayerSpec{ID: "distro-base", Files: []FileSpec{
		{Path: "/bin/sh", Size: 1 << 20, Executable: true},
		{Path: "/usr/lib/libc.so", Size: 2 << 20},
	}}
}

func TestCrossImageDedupOnSharedCAS(t *testing.T) {
	cas := blobstore.NewCAS(blobstore.CASOptions{})
	img1, err := BuildImageOn(cas, "app1", "v1", ImageConfig{}, sharedBase(),
		LayerSpec{ID: "app1", Files: []FileSpec{{Path: "/bin/a1", Size: 1 << 20, Executable: true}}})
	if err != nil {
		t.Fatal(err)
	}
	phys1 := cas.Stats().PhysicalBytes
	img2, err := BuildImageOn(cas, "app2", "v1", ImageConfig{}, sharedBase(),
		LayerSpec{ID: "app2", Files: []FileSpec{{Path: "/bin/a2", Size: 1 << 20, Executable: true}}})
	if err != nil {
		t.Fatal(err)
	}
	phys2 := cas.Stats().PhysicalBytes

	// The second image's base (3MB) fully dedups; only its 1MB app layer
	// is new content.
	grown := phys2 - phys1
	if grown <= 0 || grown > (1<<20)+8192 {
		t.Fatalf("second image grew store by %d, want ~1MB", grown)
	}
	if ratio := cas.Stats().DedupRatio(); ratio <= 1.0 {
		t.Fatalf("store-wide dedup ratio %.2f, want > 1.0", ratio)
	}
	if img1.Size() != 4<<20 || img2.Size() != 4<<20 {
		t.Fatalf("logical sizes %d %d, want 4MB each", img1.Size(), img2.Size())
	}
}

// TestLogicalVsPhysicalSize pins the Size double-counting fix: a file
// repeated in two layers is billed twice logically, once physically.
func TestLogicalVsPhysicalSize(t *testing.T) {
	cas := blobstore.NewCAS(blobstore.CASOptions{})
	dup := FileSpec{Path: "/data/blob", Size: 1 << 20}
	img, err := BuildImageOn(cas, "dup", "v1", ImageConfig{},
		LayerSpec{ID: "l1", Files: []FileSpec{dup}},
		LayerSpec{ID: "l2", Files: []FileSpec{dup}})
	if err != nil {
		t.Fatal(err)
	}
	if img.Size() != 2<<20 {
		t.Fatalf("logical size %d, want 2MB (counted per layer)", img.Size())
	}
	phys := img.PhysicalSize()
	if phys != 1<<20 {
		t.Fatalf("physical size %d, want 1MB (stored once)", phys)
	}
	if r := img.DedupRatio(); r != 2.0 {
		t.Fatalf("dedup ratio %.2f, want 2.0", r)
	}
	// The union view sees one file (l2 shadows l1): 1MB logical.
	if files := img.ListFiles(); len(files) != 1 || files["/data/blob"] != 1<<20 {
		t.Fatalf("union view %v", files)
	}
}

// TestPrivateStorePhysicalFallsBack: images without chunk-level storage
// report logical size as physical (nothing better is known).
func TestPrivateStorePhysicalEqualsLayerSum(t *testing.T) {
	img, err := BuildImage("plain", "v1", ImageConfig{},
		LayerSpec{ID: "l", Files: []FileSpec{{Path: "/f", Size: 4096}}})
	if err != nil {
		t.Fatal(err)
	}
	// Built with nil store the layer still lands on a private Mem store
	// with refs, so physical equals the stored bytes — which, with no
	// sharing anywhere, equals the logical size.
	if img.PhysicalSize() != img.Size() {
		t.Fatalf("physical %d != logical %d on private store",
			img.PhysicalSize(), img.Size())
	}
}

// TestPullChunkLevelDedup: pulling two images that share a base *by
// content* (not by layer ID) onto one node transfers the shared chunks
// once when the images live on a shared CAS.
func TestPullChunkLevelDedup(t *testing.T) {
	cas := blobstore.NewCAS(blobstore.CASOptions{})
	clock := sim.NewClock()
	reg := NewRegistry()
	// Distinct layer IDs so the layer-level cache cannot help; only
	// chunk-level dedup can save bytes.
	base1 := sharedBase()
	base1.ID = "base-for-app1"
	base2 := sharedBase()
	base2.ID = "base-for-app2"
	img1, _ := BuildImageOn(cas, "app1", "v1", ImageConfig{}, base1,
		LayerSpec{ID: "app1", Files: []FileSpec{{Path: "/bin/a1", Size: 1 << 20, Executable: true}}})
	img2, _ := BuildImageOn(cas, "app2", "v1", ImageConfig{}, base2,
		LayerSpec{ID: "app2", Files: []FileSpec{{Path: "/bin/a2", Size: 1 << 20, Executable: true}}})
	reg.Push(img1)
	reg.Push(img2)

	node := NewNode()
	_, st1, err := reg.Pull(clock, node, "app1:v1")
	if err != nil {
		t.Fatal(err)
	}
	if st1.LayersFetched != 2 || st1.BytesFetched != 4<<20 {
		t.Fatalf("first pull: %+v", st1)
	}
	_, st2, err := reg.Pull(clock, node, "app2:v1")
	if err != nil {
		t.Fatal(err)
	}
	if st2.LayersFetched != 2 {
		t.Fatalf("different layer IDs must both fetch: %+v", st2)
	}
	if st2.BytesDeduped != 3<<20 {
		t.Fatalf("shared base content must dedup at chunk level: %+v", st2)
	}
	if st2.BytesFetched != 1<<20 {
		t.Fatalf("only the app layer should transfer: %+v", st2)
	}
	if st2.Elapsed >= st1.Elapsed {
		t.Fatal("chunk-deduped pull must be faster")
	}
}

// TestPullWithoutTierUnchanged: a node pulls every chunk it does not
// hold from the registry; there is no cache tier between the two.
func TestPullWithoutTierUnchanged(t *testing.T) {
	cas := blobstore.NewCAS(blobstore.CASOptions{})
	img, err := BuildImageOn(cas, "app", "v1", ImageConfig{},
		LayerSpec{ID: "l", Files: []FileSpec{{Path: "/f", Size: 1 << 20}}})
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	reg.Push(img)
	_, st, err := reg.Pull(sim.NewClock(), NewNode(), "app:v1")
	if err != nil {
		t.Fatal(err)
	}
	if st.BytesFetched != 1<<20 || st.BytesDeduped != 0 {
		t.Fatalf("pull: %+v", st)
	}
}

// TestPullPrivateStoresNoCrossDedup: refs from two private stores must
// never be confused for each other, whatever their string values.
func TestPullPrivateStoresNoCrossDedup(t *testing.T) {
	clock := sim.NewClock()
	reg := NewRegistry()
	img1, _ := BuildImage("p1", "v1", ImageConfig{},
		LayerSpec{ID: "p1", Files: []FileSpec{{Path: "/a", Size: 1 << 20}}})
	img2, _ := BuildImage("p2", "v1", ImageConfig{},
		LayerSpec{ID: "p2", Files: []FileSpec{{Path: "/b", Size: 1 << 20}}})
	reg.Push(img1)
	reg.Push(img2)
	node := NewNode()
	reg.Pull(clock, node, "p1:v1")
	_, st, err := reg.Pull(clock, node, "p2:v1")
	if err != nil {
		t.Fatal(err)
	}
	if st.BytesDeduped != 0 {
		t.Fatalf("private stores dedup'd %d bytes across images", st.BytesDeduped)
	}
	if st.BytesFetched != 1<<20 {
		t.Fatalf("fetched %d, want full 1MB", st.BytesFetched)
	}
}

// TestRootFSWritesThroughImageStore: containers created from an image
// write their upper layer onto the image's store.
func TestRootFSWritesThroughImageStore(t *testing.T) {
	cas := blobstore.NewCAS(blobstore.CASOptions{})
	img, err := BuildImageOn(cas, "app", "v1", ImageConfig{}, sharedBase())
	if err != nil {
		t.Fatal(err)
	}
	puts := cas.Stats().Puts
	if err := vfs.NewClient(img.RootFS(), vfs.Root()).WriteFile("/new", []byte("upper"), 0o644); err != nil {
		t.Fatal(err)
	}
	if cas.Stats().Puts == puts {
		t.Fatal("a write to the root filesystem's upper layer did not reach the image store")
	}
}
