package vfs_test

import (
	"fmt"
	"testing"

	"cntr/internal/allocs"
	"cntr/internal/memfs"
	"cntr/internal/vfs"
)

// TestClientFileLifecycle: an open file, returned by value, still names
// its inode and its handle. Stat of an opened and of a created file
// returns that file's inode; a second Close returns EBADF without reaching
// the filesystem again, which sees one FLUSH and one RELEASE; a Read after
// Close returns EBADF.
func TestClientFileLifecycle(t *testing.T) {
	counts := map[vfs.OpKind]int{}
	counter := vfs.InterceptorFunc(func(info *vfs.OpInfo, next func() error) error {
		counts[info.Kind]++
		return next()
	})
	cli := vfs.NewClient(vfs.Chain(memfs.New(memfs.Options{}), counter), vfs.Root())
	if err := cli.WriteFile("/opened", []byte("data"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		open func() (vfs.File, error)
	}{
		{"opened", func() (vfs.File, error) { return cli.Open("/opened", vfs.ORdonly, 0) }},
		{"created", func() (vfs.File, error) { return cli.Open("/created", vfs.ORdwr|vfs.OCreat, 0o644) }},
	} {
		f, err := tc.open()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want, err := cli.Stat("/" + tc.name)
		if err != nil {
			t.Fatal(err)
		}
		if attr, err := f.Stat(); err != nil || attr.Ino != want.Ino || f.Ino() != want.Ino {
			t.Errorf("%s: File.Stat = inode %d, %v and Ino() = %d, want inode %d", tc.name, attr.Ino, err, f.Ino(), want.Ino)
		}
		clear(counts)
		if err := f.Close(); err != nil {
			t.Fatalf("%s: first Close: %v", tc.name, err)
		}
		if err := f.Close(); err != vfs.EBADF {
			t.Errorf("%s: second Close = %v, want EBADF", tc.name, err)
		}
		if counts[vfs.KindFlush] != 1 || counts[vfs.KindRelease] != 1 {
			t.Errorf("%s: two Closes reached the filesystem as %d FLUSH and %d RELEASE, want 1 and 1",
				tc.name, counts[vfs.KindFlush], counts[vfs.KindRelease])
		}
		if n, err := f.Read(make([]byte, 4)); n != 0 || vfs.ToErrno(err) != vfs.EBADF {
			t.Errorf("%s: Read after Close = %d, %v, want EBADF", tc.name, n, err)
		}
	}
}

// TestClientAllocBudget pins the client's own host cost on a warm memfs.
// An open file is a value and the request context is recycled, so Open, a
// 4 KiB ReadAt and Close cost no heap object. ReadDir of a 12-entry
// directory sizes its result once, from the first batch: one object on
// top of what memfs's Readdir calls cost, measured on their own (a result
// grown from nil made it five).
func TestClientAllocBudget(t *testing.T) {
	const runs, entries = 100, 12
	fs := memfs.New(memfs.Options{})
	cli := vfs.NewClient(fs, vfs.Root())
	if err := cli.WriteFile("/f", make([]byte, 8<<10), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cli.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < entries; i++ {
		if err := cli.WriteFile(fmt.Sprintf("/d/%02d", i), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	dir, err := cli.Stat("/d")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4<<10)
	openReadClose := testing.AllocsPerRun(runs, func() {
		f, err := cli.Open("/f", vfs.ORdonly, 0)
		if err != nil {
			t.Fatal(err)
		}
		if n, err := f.ReadAt(buf, 0); n != len(buf) || err != nil {
			t.Fatal(n, err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	})
	readDir := testing.AllocsPerRun(runs, func() {
		if ents, err := cli.ReadDir("/d"); len(ents) != entries || err != nil {
			t.Fatal(len(ents), err)
		}
	})
	// The same listing straight from memfs: the Readdir that returns the
	// entries and the one that finds none after them.
	op := vfs.RootOp()
	below := testing.AllocsPerRun(runs, func() {
		h, err := fs.Opendir(op, dir.Ino)
		if err != nil {
			t.Fatal(err)
		}
		ents, err := fs.Readdir(op, h, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fs.Readdir(op, h, ents[len(ents)-1].Off); err != nil {
			t.Fatal(err)
		}
		fs.Releasedir(op, h)
	})
	t.Logf("ReadDir of %d entries: %.0f heap objects, %.0f of them memfs's", entries, readDir, below)
	allocs.Check(t, "Open + 4 KiB ReadAt + Close", openReadClose)
	allocs.Check(t, "ReadDir of 12 entries beyond memfs's Readdirs", readDir-below)
}
