package stack

import (
	"fmt"
	"slices"
	"testing"

	"cntr/internal/sim"
	"cntr/internal/vfs"
)

// cookieStart makes the 100 files both cookie programs start from in /d,
// in name order, beneath the stack.
func cookieStart(t *testing.T, e *env, _ uint64) {
	cli := vfs.NewClient(e.base, vfs.Root())
	if err := cli.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	for _, f := range cookieNames(100) {
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
func rmListing(t *testing.T, e *env, _ *sim.Rand) string {
	var removed []string
	listPaged(t, e.top, func(page []vfs.Dirent) {
		for _, d := range page {
			if err := e.root.Remove("/d/" + d.Name); err != nil {
				t.Fatal(err)
			}
			removed = append(removed, d.Name)
		}
	})
	left, err := e.root.ReadDir("/d")
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
func createListing(t *testing.T, e *env, _ *sim.Rand) string {
	cli := e.root
	seen := map[string]int{}
	var transcript []string
	made := 0
	live := map[string]bool{}
	for _, f := range cookieNames(100) {
		live[f] = true
	}
	listPaged(t, e.top, func(page []vfs.Dirent) {
		for _, d := range page {
			seen[d.Name]++
			transcript = append(transcript, d.Name)
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
	listPaged(t, e.top, func(page []vfs.Dirent) { after = append(after, page...) })
	for i, d := range after {
		if i > 0 && d.Off <= after[i-1].Off {
			t.Errorf("%s after %s: cookie %d after %d", d.Name, after[i-1].Name, d.Off, after[i-1].Off)
		}
		if !live[d.Name] {
			t.Errorf("%s listed, not live (or listed twice)", d.Name)
		}
		delete(live, d.Name)
	}
	if len(live) != 0 {
		t.Errorf("%d live names not listed", len(live))
	}
	return fmt.Sprint(transcript, len(after))
}
