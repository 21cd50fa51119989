package stack

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"cntr/internal/allocs"
	"cntr/internal/policy"
	"cntr/internal/vfs"
)

// TestTopIsTheCache: a syscall enters either stack at its page cache.
// Nothing is interposed — a caller who wants counters or a trace chains
// its own interceptor over Top.
func TestTopIsTheCache(t *testing.T) {
	n := NewNative(Config{})
	if n.Top != vfs.FS(n.Cache) {
		t.Errorf("NewNative: Top is %T, want the page cache itself", n.Top)
	}
	c := NewCntr(Config{})
	defer c.Close()
	if c.Top != vfs.FS(c.Kernel) {
		t.Errorf("NewCntr: Top is %T, want the kernel-side cache itself", c.Top)
	}
}

// raceBuild reports whether the test binary was built with -race, whose
// instrumentation allocates on its own account.
func raceBuild() bool {
	info, _ := debug.ReadBuildInfo()
	if info == nil {
		return false
	}
	for _, s := range info.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// TestTopStatAllocBudget pins what the calls of a session cost the host in
// heap objects at the top of either stack, bare and behind the
// interceptors an observed session chains there (counters, a probe that
// copies each operation it sees, an enforcer auditing a profile): the
// warm ones nothing. The client's
// request context and the chain's call frame are recycled and the walker
// steps through the path in place, so an interceptor can stay switched on
// without the measured path paying for it — a single no-op interceptor
// used to cost a warm read 4 objects and a warm three-component stat 16,
// on top of the bare stack's 1 and 2.
//
// The calls that do allocate are pinned at their measured counts.
// Create-write-close of a new file, native (0): the open file is a value,
// and memfs's inode, the cache's file state and the page's header and
// bytes are cut from slabs, a block per 64 at most; the cache holds a
// file's first pages in place and its first zombie handle in a slot, so it
// makes no page map and no zombie slice, and the tables' growth comes to
// less than one per call. Through CntrFS (2) the second cache's records
// come from its slabs too and CntrFS holds its inode-table entry by value:
// what is added is the name the server decodes from the CREATE frame (1)
// and the tables' growth (1); the flush's dirty-index slice, extent list
// and extent buffer are the cache's scratch. ReadDir of a three-entry
// directory, native (5): the entry slice and sorted names of the one
// non-empty Readdir (4), and the caller's result, sized once from that
// batch (1). Through CntrFS (2) the kernel side answers from its cached
// listing (FOPEN_CACHE_DIR): its copy of the entries (1) and the result
// (1). Before the open file was a value the creates were 1 and 3, and the
// ReadDirs, whose result grew from nil, 6 and 3; before the per-file
// records came from slabs the creates were 5 and 11; before the caches
// held a file's first pages in place 8 and 16; before they held a handle's
// open state by value these were 11 and 20, 8 and 11; before memfs held
// its own by value and made an inode's xattr map at its first Setxattr,
// 10 and 18, 7 and 9. Behind the chain the enforcer
// keeps the new file's path: one string more. Overwriting a cached page
// and fsyncing it allocates nothing: memfs stores a write that covers its
// block's extent as given, and the blob store copies it into a shared run
// under a ref cut from a shared string (3 before: the merged block, the
// copy and its ref). The page caches write back from their scratch and the
// FUSE WRITE frame is the Conn's, so the call stays under 6 KiB: the
// block's share of its run and change, with no room for one more
// page-sized buffer.
func TestTopStatAllocBudget(t *testing.T) {
	allowAll := &policy.Profile{Rules: []policy.Rule{{Prefix: "/", Kinds: []string{"any"}}}}
	newNames := make([]string, 256)
	for i := range newNames {
		newNames[i] = fmt.Sprintf("/d/new%d", i)
	}
	for _, st := range []struct {
		name string
		top  func(t *testing.T) vfs.FS
	}{
		{"native", func(t *testing.T) vfs.FS { return NewNative(Config{}).Top }},
		{"cntr", func(t *testing.T) vfs.FS {
			c := NewCntr(Config{})
			t.Cleanup(c.Close)
			return c.Top
		}},
	} {
		for _, chained := range []bool{false, true} {
			name := st.name
			if chained {
				name += "/chained"
			}
			t.Run(name, func(t *testing.T) {
				top := st.top(t)
				var seen vfs.OpInfo
				if chained {
					probe := vfs.InterceptorFunc(func(info *vfs.OpInfo, next func() error) error {
						err := next()
						seen = *info
						return err
					})
					enf, err := policy.NewEnforcer(allowAll, true)
					if err != nil {
						t.Fatal(err)
					}
					top = vfs.Chain(top, vfs.NewStats(), probe, enf)
				}
				cli := vfs.NewClient(top, vfs.Root())
				if err := cli.MkdirAll("/d/e", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := cli.WriteFile("/d/e/f", make([]byte, 8<<10), 0o644); err != nil {
					t.Fatal(err)
				}
				if err := cli.Symlink("f", "/d/e/l"); err != nil {
					t.Fatal(err)
				}
				f, err := cli.Open("/d/e/f", vfs.ORdonly, 0)
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				w, err := cli.Open("/d/e/f", vfs.ORdwr, 0)
				if err != nil {
					t.Fatal(err)
				}
				defer w.Close()
				buf := make([]byte, 4<<10)
				created := 0
				for _, row := range []struct {
					call     string
					maxBytes float64 // per call; 0 leaves bytes unchecked
					fn       func()
				}{
					{"warm 4 KiB ReadAt", 0, func() {
						if _, err := f.ReadAt(buf, 4<<10); err != nil {
							t.Fatal(err)
						}
					}},
					{"warm three-component Stat", 0, func() {
						if _, err := cli.Stat("/d/e/f"); err != nil {
							t.Fatal(err)
						}
					}},
					{"warm three-component Lstat", 0, func() {
						if _, err := cli.Lstat("/d/e/l"); err != nil {
							t.Fatal(err)
						}
					}},
					{"create-write-close of a new file", 0, func() {
						if err := cli.WriteFile(newNames[created], buf[:64], 0o644); err != nil {
							t.Fatal(err)
						}
						created++
					}},
					{"ReadDir of a three-entry directory", 0, func() {
						if _, err := cli.ReadDir("/d/e"); err != nil {
							t.Fatal(err)
						}
					}},
					{"overwrite one cached 4 KiB page + Fsync", 6 << 10, func() {
						if _, err := w.WriteAt(buf, 0); err != nil {
							t.Fatal(err)
						}
						if err := w.Sync(); err != nil {
							t.Fatal(err)
						}
					}},
				} {
					row.fn()
					var before, after runtime.MemStats
					runtime.ReadMemStats(&before)
					got := testing.AllocsPerRun(200, row.fn)
					runtime.ReadMemStats(&after)
					bytes := float64(after.TotalAlloc-before.TotalAlloc) / 201
					allocs.Check(t, name+": "+row.call, got)
					t.Logf("%s: %.0f bytes", row.call, bytes)
					if raceBuild() {
						continue
					}
					if row.maxBytes > 0 && bytes > row.maxBytes {
						t.Errorf("%s costs %.0f bytes, budget %.0f: a page-sized buffer more than memfs keeps", row.call, bytes, row.maxBytes)
					}
				}
				if chained && seen.Op == nil {
					t.Error("the probe saw no operation")
				}
			})
		}
	}
}
