package cachesvc

import (
	"slices"
	"testing"

	"cntr/internal/blobstore"
)

// TestShardMapPinned holds what was recorded when a key was the string
// space+":"+name: the shard and lease group of chunk and attr keys on a
// default service, the order of a store's keys() snapshot (the order a
// migration copies in) and the bytes an entry charges.
func TestShardMapPinned(t *testing.T) {
	s := New(Options{})
	for _, tc := range []struct {
		key          Key
		shard, group int
	}{
		{ChunkKey(blobstore.Sum([]byte("layer-0"))), 9, 1},
		{ChunkKey(blobstore.Sum([]byte("layer-1"))), 13, 1},
		{ChunkKey(blobstore.Sum(nil)), 11, 3},
		{ChunkKey("deadbeef"), 4, 0},
		{AttrKey("/images/img000/layer0.bin"), 8, 0},
		{AttrKey("/images/img049/layer2.bin"), 3, 3},
		{AttrKey("/etc/passwd"), 10, 2},
		{AttrKey(""), 2, 2},
	} {
		if sh, g := s.ShardOf(tc.key), s.GroupOf(tc.key); sh != tc.shard || g != tc.group {
			t.Errorf("%v: shard %d group %d, recorded %d and %d", tc.key, sh, g, tc.shard, tc.group)
		}
	}

	one := New(Options{Shards: 1})
	want := []Key{
		AttrKey(""), AttrKey("/etc"), AttrKey("/etc/passwd"), AttrKey("/etc0"),
		ChunkKey(""), ChunkKey("0123"), ChunkKey("ab"), ChunkKey("abc"), ChunkKey("b"),
	}
	for _, i := range []int{7, 2, 4, 0, 8, 5, 1, 6, 3} {
		one.Seed(want[i], []byte{byte(i)})
	}
	if got := one.nodes[0].stores[0].keys(); !slices.Equal(got, want) {
		t.Errorf("keys() = %v, want %v", got, want)
	}
	// Each entry charges its value and 2+len(name) bytes of key: 9 of
	// value, 18 of "c:"/"a:", 30 of names.
	if b := one.Stats().Bytes; b != 57 {
		t.Errorf("9 one-byte entries charge %d bytes, recorded 57", b)
	}
}
