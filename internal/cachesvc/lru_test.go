package cachesvc

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
	"testing"

	"cntr/internal/sim"
)

// TestReplicasEvictAsThePrimaryDecides: a read touches only the primary's
// LRU order, so a replica evicting by its own order would drop another
// entry than the primary and the copies would drift apart. The primary
// decides and every replica drops the same victim; each copy counts its
// own eviction.
func TestReplicasEvictAsThePrimaryDecides(t *testing.T) {
	for _, nodes := range []int{2, 3} {
		t.Run(fmt.Sprintf("nodes=%d", nodes), func(t *testing.T) {
			svc := New(Options{Shards: 1, Nodes: nodes, Replicas: nodes - 1, ShardCapacity: 4096})
			key := func(i int) Key { return Key{'c', fmt.Sprintf("chunk-%d", i)} }
			val := make([]byte, 1000)
			for i := 1; i <= 4; i++ {
				seed(svc, key(i), val)
			}
			if _, ok := svc.Get(key(1)); !ok {
				t.Fatal("chunk-1 missing before any eviction")
			}
			seed(svc, key(5), val)
			if err := svc.CheckConsistency(); err != nil {
				t.Fatal(err)
			}
			for i, want := range []bool{true, false, true, true, true} {
				if got := svc.Contains(key(i + 1)); got != want {
					t.Errorf("chunk-%d held %v, want %v", i+1, got, want)
				}
			}
			for _, ns := range svc.NodeStats() {
				if ns.Evictions != 1 || ns.Entries != 4 {
					t.Errorf("node %d: %d evictions and %d entries, want 1 and 4", ns.ID, ns.Evictions, ns.Entries)
				}
			}
		})
	}
}

// lruModel is the reference a store is checked against: a map of values
// and the keys from least to most recently used.
type lruModel struct {
	vals       map[Key][]byte
	order      []Key
	bytes, cap int64
}

func (m *lruModel) touch(k Key) {
	if i := slices.Index(m.order, k); i >= 0 {
		m.order = slices.Delete(m.order, i, i+1)
	}
	m.order = append(m.order, k)
}

func (m *lruModel) drop(k Key) {
	m.bytes -= int64(len(m.vals[k])) + k.size()
	delete(m.vals, k)
	m.order = slices.DeleteFunc(m.order, func(o Key) bool { return o == k })
}

// put stores v under k and returns the keys it evicted, oldest first.
func (m *lruModel) put(k Key, v []byte) (evicted []Key) {
	if old, ok := m.vals[k]; ok {
		m.bytes -= int64(len(old))
	} else {
		m.bytes += k.size()
	}
	m.vals[k] = v
	m.bytes += int64(len(v))
	m.touch(k)
	for m.bytes > m.cap && len(m.order) > 1 {
		evicted = append(evicted, m.order[0])
		m.drop(m.order[0])
	}
	return evicted
}

// driveStoreLRU runs prog, three bytes an operation, on a primary store
// and a replica fed the primary's victims, as applyLocked feeds them, and
// checks each step against lruModel: values, evictions, entry count,
// bytes and keys(), and the replica holding what the primary holds.
func driveStoreLRU(t *testing.T, prog []byte) {
	const capacity = 300
	st, rep := newStore(capacity), newStore(capacity)
	m := &lruModel{vals: map[Key][]byte{}, cap: capacity}
	var victims []Key
	for step := 0; len(prog) >= 3; step, prog = step+1, prog[3:] {
		op, k, size := prog[0]%8, Key{'c', fmt.Sprintf("k%d", prog[1]%12)}, int(prog[2])%120
		switch op {
		case 0, 1, 2: // put
			val := bytes.Repeat([]byte{byte(step)}, size)
			want := m.put(k, val)
			var n, rn int
			victims, n = st.put(k, val, victims[:0], true)
			_, rn = rep.put(k, val, victims, false)
			if !slices.Equal(victims, want) || n != len(want) || rn != len(want) {
				t.Fatalf("step %d: put %v evicted %v (%d, replica %d), want %v", step, k, victims, n, rn, want)
			}
		case 3, 4: // get
			got, ok := st.get(k)
			want, wok := m.vals[k]
			if wok {
				m.touch(k)
			}
			if ok != wok || !bytes.Equal(got, want) {
				t.Fatalf("step %d: get %v = %x, %v; want %x, %v", step, k, got, ok, want, wok)
			}
		case 5: // remove
			_, wok := m.vals[k]
			if wok {
				m.drop(k)
			}
			if ok, rok := st.remove(k), rep.remove(k); ok != wok || rok != wok {
				t.Fatalf("step %d: remove %v = %v (replica %v), want %v", step, k, ok, rok, wok)
			}
		case 6: // clear, now and then
			if size%8 != 0 {
				continue
			}
			st.clear()
			rep.clear()
			m.vals, m.order, m.bytes = map[Key][]byte{}, nil, 0
		case 7: // fill new copies from the primary, as KillNode does
			if size%4 != 0 {
				continue
			}
			fresh, frep := newStore(capacity), newStore(capacity)
			fresh.fill(st)
			frep.fill(st)
			st, rep = fresh, frep
			slices.SortFunc(m.order, cmpKey)
		}
		want := slices.SortedFunc(maps.Keys(m.vals), cmpKey)
		for _, c := range []*store{st, rep} {
			if len(c.entries) != len(m.vals) || c.bytes != m.bytes || !slices.Equal(c.keys(), want) {
				t.Fatalf("step %d: store holds %d entries, %d bytes, keys %v; want %d, %d, %v",
					step, len(c.entries), c.bytes, c.keys(), len(m.vals), m.bytes, want)
			}
			for k, v := range c.dump() {
				if !bytes.Equal(v, m.vals[k]) {
					t.Fatalf("step %d: %v holds %x, want %x", step, k, v, m.vals[k])
				}
			}
		}
	}
}

// cmpKey orders keys as keys() does.
func cmpKey(a, b Key) int {
	switch {
	case a.less(b):
		return -1
	case b.less(a):
		return 1
	}
	return 0
}

// TestStoreMatchesReferenceLRU drives a store and its replica with seeded
// programs at a capacity that evicts, against lruModel.
func TestStoreMatchesReferenceLRU(t *testing.T) {
	for seed := uint64(1); seed <= 32; seed++ {
		r := sim.NewRand(seed)
		prog := make([]byte, 3*400)
		for i := range prog {
			prog[i] = byte(r.Uint64())
		}
		driveStoreLRU(t, prog)
	}
}

// FuzzStoreLRU runs driveStoreLRU on arbitrary programs.
func FuzzStoreLRU(f *testing.F) {
	f.Add([]byte{0, 1, 100, 0, 2, 100, 0, 3, 100, 3, 1, 0, 0, 4, 100, 7, 0, 0, 0, 5, 119})
	f.Add([]byte{0, 1, 50, 5, 1, 0, 0, 1, 60, 6, 0, 8, 0, 2, 10})
	f.Fuzz(driveStoreLRU)
}
