package stack

import (
	"fmt"
	"slices"
	"testing"

	"cntr/internal/fuse"
	"cntr/internal/memfs"
	"cntr/internal/sim"
	"cntr/internal/unionfs"
	"cntr/internal/vfs"
)

// cookieLane is one stack the cookie programs run on: build returns the
// top of a fresh stack whose /d holds files, made in name order.
type cookieLane struct {
	name  string
	build func(t *testing.T, files []string) vfs.FS
}

func cookieLanes() []cookieLane {
	cntr := func(mount fuse.MountOptions) func(*testing.T, []string) vfs.FS {
		return func(t *testing.T, files []string) vfs.FS {
			c := NewCntr(Config{Mount: mount})
			t.Cleanup(c.Close)
			seedDir(t, c.Top, files)
			return c.Top
		}
	}
	return []cookieLane{
		{"native", func(t *testing.T, files []string) vfs.FS {
			n := NewNative(Config{})
			seedDir(t, n.Top, files)
			return n.Top
		}},
		{"cntr default", cntr(fuse.DefaultMountOptions())},
		{"cntr paper", cntr(fuse.PaperMountOptions())},
		// The files are in the union's lower layer, so each unlink is a
		// whiteout in the upper, and with NoOpendir every READDIR is a
		// fresh union handle: only a cookie that names an entry across
		// handles resumes the listing.
		{"unionfs lower under cntr", func(t *testing.T, files []string) vfs.FS {
			lower := memfs.New(memfs.Options{})
			seedDir(t, lower, files)
			m := NewMount(unionfs.NewWith(unionfs.Options{}, lower), sim.NewClock(), sim.DefaultCostModel(), Config{})
			t.Cleanup(m.Close)
			return m.Kernel
		}},
	}
}

func seedDir(t *testing.T, fs vfs.FS, files []string) {
	t.Helper()
	cli := vfs.NewClient(fs, vfs.Root())
	if err := cli.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if err := cli.WriteFile("/d/"+f, []byte(f), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// listPaged lists /d on one handle ten records at a time, as getdents
// with a small buffer does, and calls each with every page's entries but
// "." and ".." before it reads the next.
func listPaged(t *testing.T, top vfs.FS, each func(page []vfs.Dirent)) {
	t.Helper()
	op := vfs.RootOp()
	dir, err := vfs.NewClient(top, vfs.Root()).Stat("/d")
	if err != nil {
		t.Fatal(err)
	}
	h, err := top.Opendir(op, dir.Ino)
	if err != nil {
		t.Fatal(err)
	}
	defer top.Releasedir(op, h)
	off := int64(0)
	for calls := 0; ; calls++ {
		if calls > 1000 {
			t.Fatal("the listing does not end")
		}
		ents, err := top.Readdir(op, h, off)
		if err != nil {
			t.Fatal(err)
		}
		if len(ents) == 0 {
			return
		}
		ents = ents[:min(10, len(ents))]
		off = ents[len(ents)-1].Off
		page := slices.DeleteFunc(slices.Clone(ents), func(e vfs.Dirent) bool { return e.Name == "." || e.Name == ".." })
		each(page)
	}
}

// cookieNames are the files both programs start from.
func cookieNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("f%03d", i)
	}
	return names
}

// rmListing is ROADMAP's probe, an rm -r of /d: 100 files listed ten
// records at a time, each unlinked as it is listed. It returns the order
// it removed them in; /d must then be empty. With a cookie that was a
// position in the listing, 48 files were left on every lane.
func rmListing(t *testing.T, top vfs.FS) string {
	cli := vfs.NewClient(top, vfs.Root())
	var removed []string
	listPaged(t, top, func(page []vfs.Dirent) {
		for _, e := range page {
			if err := cli.Remove("/d/" + e.Name); err != nil {
				t.Fatal(err)
			}
			removed = append(removed, e.Name)
		}
	})
	left, err := cli.ReadDir("/d")
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Errorf("rm -r left %d of 100 files, the first %q", len(left), left[0].Name)
	}
	return fmt.Sprint(removed)
}

// createListing lists /d ten records at a time and, after each of the
// first ten pages, unlinks the page's first file and creates two new ones
// (after that the listing would chase its own creations). Every file
// untouched when the listing began is listed exactly once. A listing of
// the result then holds every live name once, under strictly increasing
// cookies: a cookie the directory gave before is never given again.
func createListing(t *testing.T, top vfs.FS) string {
	cli := vfs.NewClient(top, vfs.Root())
	seen := map[string]int{}
	var transcript []string
	made := 0
	live := map[string]bool{}
	for _, f := range cookieNames(100) {
		live[f] = true
	}
	listPaged(t, top, func(page []vfs.Dirent) {
		for _, e := range page {
			seen[e.Name]++
			transcript = append(transcript, e.Name)
		}
		if made == 20 {
			return
		}
		if err := cli.Remove("/d/" + page[0].Name); err != nil {
			t.Fatal(err)
		}
		delete(live, page[0].Name)
		for range 2 {
			name := fmt.Sprintf("n%03d", made)
			if err := cli.WriteFile("/d/"+name, nil, 0o644); err != nil {
				t.Fatal(err)
			}
			live[name] = true
			made++
		}
	})
	for _, f := range cookieNames(100) {
		if seen[f] != 1 {
			t.Errorf("untouched %s listed %d times, want once", f, seen[f])
		}
	}
	var after []vfs.Dirent
	listPaged(t, top, func(page []vfs.Dirent) { after = append(after, page...) })
	for i, e := range after {
		if i > 0 && e.Off <= after[i-1].Off {
			t.Errorf("%s after %s: cookie %d after %d", e.Name, after[i-1].Name, e.Off, after[i-1].Off)
		}
		if !live[e.Name] {
			t.Errorf("%s listed, not live (or listed twice)", e.Name)
		}
		delete(live, e.Name)
	}
	if len(live) != 0 {
		t.Errorf("%d live names not listed", len(live))
	}
	return fmt.Sprint(transcript, len(after))
}

// TestReaddirCookieDifferential runs both cookie programs on every lane:
// what each lists must be the native stack's, and neither may lose or
// repeat an entry.
func TestReaddirCookieDifferential(t *testing.T) {
	for _, prog := range []struct {
		name string
		run  func(*testing.T, vfs.FS) string
	}{{"rm -r", rmListing}, {"create while listing", createListing}} {
		t.Run(prog.name, func(t *testing.T) {
			var want string
			for _, lane := range cookieLanes() {
				t.Run(lane.name, func(t *testing.T) {
					got := prog.run(t, lane.build(t, cookieNames(100)))
					if want == "" {
						want = got
					} else if got != want {
						t.Errorf("lists\n %s\nnative lists\n %s", got, want)
					}
				})
			}
		})
	}
}
