package memfs

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"cntr/internal/blobstore"
	"cntr/internal/sim"
	"cntr/internal/vfs"
)

// backends returns a fresh memfs on every backend store, keyed by name.
// The core behaviour suite below must pass identically on all of them:
// the store is a storage detail, never a semantic one.
func backends() map[string]*FS {
	return map[string]*FS{
		"mem": New(Options{Store: blobstore.NewMem()}),
		"cas": New(Options{Store: blobstore.NewCAS(blobstore.CASOptions{})}),
	}
}

func TestBackendsRoundTrip(t *testing.T) {
	for name, fs := range backends() {
		t.Run(name, func(t *testing.T) {
			c := vfs.NewClient(fs, vfs.Root())
			data := make([]byte, 3*blockSize+100)
			for i := range data {
				data[i] = byte(i % 251)
			}
			if err := c.WriteFile("/f", data, 0o644); err != nil {
				t.Fatal(err)
			}
			got, err := c.ReadFile("/f")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("roundtrip mismatch")
			}
		})
	}
}

func TestBackendsOverwriteAndTruncate(t *testing.T) {
	for name, fs := range backends() {
		t.Run(name, func(t *testing.T) {
			c := vfs.NewClient(fs, vfs.Root())
			c.WriteFile("/f", bytes.Repeat([]byte("a"), 2*blockSize), 0o644)
			f, err := c.Open("/f", vfs.ORdwr, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			// Overwrite inside the first block (read-modify-write path).
			if _, err := f.WriteAt([]byte("XYZ"), 10); err != nil {
				t.Fatal(err)
			}
			// Shrink to a non-block boundary (boundary blob trim).
			if err := f.Truncate(blockSize + 7); err != nil {
				t.Fatal(err)
			}
			got, err := c.ReadFile("/f")
			if err != nil {
				t.Fatal(err)
			}
			want := bytes.Repeat([]byte("a"), blockSize+7)
			copy(want[10:], "XYZ")
			if !bytes.Equal(got, want) {
				t.Fatal("overwrite+truncate mismatch")
			}
			// Grow back: the region past the old end reads as zeros.
			if err := f.Truncate(blockSize + 100); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 93)
			if _, err := f.ReadAt(buf, blockSize+7); err != nil {
				t.Fatal(err)
			}
			for _, b := range buf {
				if b != 0 {
					t.Fatal("grown region must read zeros")
				}
			}
		})
	}
}

func TestBackendsSparseHoles(t *testing.T) {
	for name, fs := range backends() {
		t.Run(name, func(t *testing.T) {
			c := vfs.NewClient(fs, vfs.Root())
			f, err := c.Open("/s", vfs.ORdwr|vfs.OCreat, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := f.WriteAt([]byte("end"), 10*blockSize); err != nil {
				t.Fatal(err)
			}
			attr, _ := f.Stat()
			if attr.Blocks != blockSize/512 {
				t.Fatalf("blocks = %d, want one block on every backend", attr.Blocks)
			}
			buf := make([]byte, 10)
			f.ReadAt(buf, 5*blockSize)
			for _, b := range buf {
				if b != 0 {
					t.Fatal("hole must read zeros")
				}
			}
		})
	}
}

// TestBackendsUnlinkFreesStore checks the GC chain end to end: removing
// the last name (and closing the last handle) must drop the inode's
// block references, so the store's physical bytes return to zero.
func TestBackendsUnlinkFreesStore(t *testing.T) {
	for name, fs := range backends() {
		t.Run(name, func(t *testing.T) {
			c := vfs.NewClient(fs, vfs.Root())
			c.WriteFile("/dead", bytes.Repeat([]byte("x"), 5*blockSize), 0o644)
			if st := fs.Store().Stats(); st.PhysicalBytes == 0 {
				t.Fatal("content must hit the store")
			}
			if err := c.Remove("/dead"); err != nil {
				t.Fatal(err)
			}
			if st := fs.Store().Stats(); st.PhysicalBytes != 0 {
				t.Fatalf("unlink leaked %d physical bytes", st.PhysicalBytes)
			}
		})
	}
}

// TestCASBackendDedups is the tentpole property at the filesystem layer:
// two files with identical content cost one set of chunks.
func TestCASBackendDedups(t *testing.T) {
	fs := New(Options{Store: blobstore.NewCAS(blobstore.CASOptions{})})
	c := vfs.NewClient(fs, vfs.Root())
	data := bytes.Repeat([]byte("tooling"), blockSize) // ~7 blocks
	c.WriteFile("/a", data, 0o644)
	after1 := fs.Store().Stats().PhysicalBytes
	c.WriteFile("/b", data, 0o644)
	after2 := fs.Store().Stats().PhysicalBytes
	if after2 != after1 {
		t.Fatalf("identical second file grew physical bytes %d -> %d", after1, after2)
	}
	// Capacity accounting is logical (blockSize per block), whatever the
	// store deduplicates.
	if st, _ := fs.Statfs(c.Op, vfs.RootIno); (st.Blocks-st.BlocksFree)*blockSize <= uint64(len(data)) {
		t.Fatal("logical accounting must still bill both files")
	}
}

// TestCorruptChunkSurfacesEIO: a chunk failing its content check at the
// bottom of the stack must come back as EIO from read(2).
func TestCorruptChunkSurfacesEIO(t *testing.T) {
	cas := blobstore.NewCAS(blobstore.CASOptions{})
	fs := New(Options{Store: cas})
	c := vfs.NewClient(fs, vfs.Root())
	data := bytes.Repeat([]byte("q"), 2*blockSize)
	c.WriteFile("/f", data, 0o644)
	for _, ref := range fs.BlockRefs() {
		if !cas.CorruptForTest(ref) {
			t.Fatal("corruption hook failed")
		}
		break // first block is enough
	}
	_, err := c.ReadFile("/f")
	if vfs.ToErrno(err) != vfs.EIO {
		t.Fatalf("want EIO, got %v", err)
	}
}

// TestMissingChunkSurfacesEIO: same via the fault injector's not-found
// mode — the chaos-profile path.
func TestMissingChunkSurfacesEIO(t *testing.T) {
	cas := blobstore.NewCAS(blobstore.CASOptions{})
	inj := blobstore.NewFaultInjector(cas,
		blobstore.FaultRule{Op: blobstore.FaultGet, Err: blobstore.ErrNotFound, EveryN: 1})
	fs := New(Options{Store: inj})
	c := vfs.NewClient(fs, vfs.Root())
	c.WriteFile("/f", []byte("short"), 0o644)
	_, err := c.ReadFile("/f")
	if vfs.ToErrno(err) != vfs.EIO {
		t.Fatalf("want EIO, got %v", err)
	}
	if inj.Injected() == 0 {
		t.Fatal("injector never fired")
	}
}

// TestBlockRefsLiveSet pins the BlockRefs accessor container builds rely
// on: one ref per materialized block, none after removal.
func TestBlockRefsLiveSet(t *testing.T) {
	fs := New(Options{Store: blobstore.NewCAS(blobstore.CASOptions{})})
	c := vfs.NewClient(fs, vfs.Root())
	c.WriteFile("/x", bytes.Repeat([]byte("r"), 3*blockSize), 0o644)
	if n := len(fs.BlockRefs()); n != 3 {
		t.Fatalf("BlockRefs = %d, want 3", n)
	}
	c.Remove("/x")
	if n := len(fs.BlockRefs()); n != 0 {
		t.Fatalf("BlockRefs after remove = %d", n)
	}
}

// TestBlockWriteDifferential replays random WriteAt / Truncate /
// Fallocate(PUNCH_HOLE) scripts against a flat byte slice, on the private
// and the content-addressed store. The scripts mix writes from a block's
// start that cover its stored extent (stored as given) with ones shorter
// than it and sub-block writes (merged with the old blob), and end blocks
// short of a full block. After every step the file must read back as the
// oracle, and the store must hold exactly the blobs the inode references.
func TestBlockWriteDifferential(t *testing.T) {
	for _, store := range []struct {
		name string
		new  func() blobstore.Store
	}{
		{"mem", func() blobstore.Store { return blobstore.NewMem() }},
		{"cas", func() blobstore.Store { return blobstore.NewCAS(blobstore.CASOptions{}) }},
	} {
		t.Run(store.name, func(t *testing.T) {
			for seed := int64(0); seed < 500; seed++ {
				if err := blockWriteScript(store.new(), seed); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
		})
	}
}

func blockWriteScript(store blobstore.Store, seed int64) error {
	const maxSize = 6*blockSize + 123
	r := rand.New(rand.NewSource(seed))
	fs := New(Options{Store: store})
	c := vfs.NewClient(fs, vfs.Root())
	f, err := c.Open("/f", vfs.ORdwr|vfs.OCreat, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	var oracle []byte
	got := make([]byte, maxSize+blockSize)
	for step := 0; step < 40; step++ {
		var what string
		switch k := r.Intn(10); {
		case k < 7:
			// Start at a block boundary half the time, else anywhere.
			off := r.Int63n(maxSize / blockSize * blockSize)
			if r.Intn(2) == 0 {
				off -= off % blockSize
			}
			var n int64
			switch r.Intn(4) {
			case 0:
				n = 1 + r.Int63n(64)
			case 1:
				n = 1 + r.Int63n(blockSize)
			case 2:
				n = blockSize
			default:
				n = blockSize + r.Int63n(2*blockSize)
			}
			n = min(n, maxSize-off)
			// Never zero, so a lost byte does not read as a hole's.
			data, base := make([]byte, n), byte(r.Intn(256))
			for i := range data {
				data[i] = (base + byte(i*7)) | 1
			}
			what = fmt.Sprintf("write %d@%d", n, off)
			if w, err := f.WriteAt(data, off); err != nil || w != len(data) {
				return fmt.Errorf("step %d %s: wrote %d, %v", step, what, w, err)
			}
			if end := off + n; end > int64(len(oracle)) {
				oracle = append(oracle, make([]byte, end-int64(len(oracle)))...)
			}
			copy(oracle[off:], data)
		case k < 9:
			size := r.Int63n(maxSize + 1)
			what = fmt.Sprintf("truncate %d", size)
			if err := f.Truncate(size); err != nil {
				return fmt.Errorf("step %d %s: %v", step, what, err)
			}
			if size < int64(len(oracle)) {
				oracle = oracle[:size]
			} else {
				oracle = append(oracle, make([]byte, size-int64(len(oracle)))...)
			}
		default:
			off := r.Int63n(maxSize)
			n := 1 + r.Int63n(2*blockSize)
			what = fmt.Sprintf("punch %d@%d", n, off)
			if err := fs.Fallocate(vfs.RootOp(), f.Handle(), vfs.FallocPunchHole|vfs.FallocKeepSize, off, n); err != nil {
				return fmt.Errorf("step %d %s: %v", step, what, err)
			}
			for i := off; i < off+n && i < int64(len(oracle)); i++ {
				oracle[i] = 0
			}
		}
		attr, err := f.Stat()
		if err != nil {
			return err
		}
		if attr.Size != int64(len(oracle)) {
			return fmt.Errorf("step %d %s: size %d, oracle %d", step, what, attr.Size, len(oracle))
		}
		n, err := f.ReadAt(got, 0)
		if len(oracle) > 0 && err != nil {
			return fmt.Errorf("step %d %s: read: %v", step, what, err)
		}
		if !bytes.Equal(got[:n], oracle) {
			return fmt.Errorf("step %d %s: content differs from the oracle", step, what)
		}
		refs := make(map[blobstore.Ref]bool)
		for _, ref := range fs.BlockRefs() {
			refs[ref] = true
		}
		if st := store.Stats(); st.Blobs != int64(len(refs)) {
			return fmt.Errorf("step %d %s: store holds %d blobs, the inode references %d", step, what, st.Blobs, len(refs))
		}
	}
	return nil
}

// TestViewPagesSharesWholeBlocks: over a Mem store ViewPages returns the
// stored bytes of each whole block of a regular file, without counting a
// Get, and nil for a hole, a short block, a block past the end, a
// directory and an inode that is not there; a view held across an
// overwrite of its block keeps the bytes it had. A CAS store offers
// no views.
func TestViewPagesSharesWholeBlocks(t *testing.T) {
	for name, fs := range backends() {
		t.Run(name, func(t *testing.T) {
			c := vfs.NewClient(fs, vfs.Root())
			data := make([]byte, 4*blockSize+100)
			sim.NewRand(9).Bytes(data)
			clear(data[2*blockSize : 3*blockSize])
			f, err := c.Create("/f", 0o644)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			for _, b := range []int{0, 1, 3, 4} { // block 2 stays a hole
				end := min((b+1)*blockSize, len(data))
				if _, err := f.WriteAt(data[b*blockSize:end], int64(b*blockSize)); err != nil {
					t.Fatal(err)
				}
			}
			gets := fs.Store().Stats().Gets
			var stale [blockSize]byte
			views := make([]*[blockSize]byte, 6)
			for i := range views {
				views[i] = &stale
			}
			fs.ViewPages(f.Ino(), 0, views)
			if got := fs.Store().Stats().Gets; got != gets {
				t.Fatalf("ViewPages counted %d Gets", got-gets)
			}
			for i, v := range views {
				whole := name == "mem" && (i == 0 || i == 1 || i == 3)
				if whole != (v != nil) {
					t.Fatalf("block %d viewed %v, want %v", i, v != nil, whole)
				}
				if whole && !bytes.Equal(v[:], data[i*blockSize:(i+1)*blockSize]) {
					t.Fatalf("block %d's view differs from what was written", i)
				}
			}
			if name != "mem" {
				return
			}
			held := views[1]
			if _, err := f.WriteAt([]byte("overwritten"), blockSize+7); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(held[:], data[blockSize:2*blockSize]) {
				t.Fatal("a held view changed when its block was overwritten")
			}
			fs.ViewPages(f.Ino(), 1, views[:1])
			if views[0] == nil || string(views[0][7:18]) != "overwritten" {
				t.Fatal("the overwritten block's view does not hold the write")
			}
			dir, err := c.Stat("/")
			if err != nil {
				t.Fatal(err)
			}
			for _, ino := range []vfs.Ino{dir.Ino, f.Ino() + 100} {
				views[0] = &stale
				if fs.ViewPages(ino, 0, views[:1]); views[0] != nil {
					t.Fatalf("inode %d has a view", ino)
				}
			}
		})
	}
}
