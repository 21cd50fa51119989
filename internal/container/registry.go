package container

import (
	"sync"
	"time"

	"cntr/internal/blobstore"
	"cntr/internal/cachesvc"
	"cntr/internal/sim"
	"cntr/internal/vfs"
)

// Registry models an image registry plus the network between it and a
// node: pulls transfer layer bytes at a fixed bandwidth, and layers the
// node already holds are skipped — Docker's base-image diff transfer
// (§2.2). Previous work found downloads account for 92% of container
// deployment time, which is the motivation for slim images (§1).
type Registry struct {
	mu     sync.Mutex
	images map[string]*Image
	// BandwidthBytesPerSec is the simulated network bandwidth
	// (default 125 MB/s — a 1 Gbit link).
	BandwidthBytesPerSec int64
	// PerLayerLatency is the request latency per layer fetch.
	PerLayerLatency time.Duration
}

// NewRegistry returns an empty registry with a 1 Gbit network.
func NewRegistry() *Registry {
	return &Registry{
		images:               make(map[string]*Image),
		BandwidthBytesPerSec: 125 << 20,
		PerLayerLatency:      20 * time.Millisecond,
	}
}

// Push stores an image.
func (r *Registry) Push(img *Image) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.images[img.Ref()] = img
}

// PullStats reports what a pull transferred.
type PullStats struct {
	LayersFetched int
	LayersCached  int
	BytesFetched  int64
	// BytesDeduped counts chunk bytes a fetched layer shared with
	// chunks the node already held (from any previously pulled layer of
	// any image), which therefore never crossed the network. Only
	// layers carrying chunk refs — built on a content-addressed store —
	// participate; others transfer their full size.
	BytesDeduped int64
	// BytesFromCache counts chunk bytes served by the node's shared
	// cache tier (another mount or an earlier pull already fetched them)
	// instead of the registry network.
	BytesFromCache int64
	Elapsed        time.Duration
}

// Pull fetches ref onto a node, advancing the clock by the simulated
// transfer time. Layers present in the node's cache are skipped
// (Docker's base-image diff transfer); layers with chunk refs transfer
// only the chunks the node doesn't hold yet — the finer-grained sharing
// a content-addressed store unlocks.
func (r *Registry) Pull(clock *sim.Clock, node *Node, ref string) (*Image, PullStats, error) {
	r.mu.Lock()
	img, ok := r.images[ref]
	r.mu.Unlock()
	if !ok {
		return nil, PullStats{}, vfs.ENOENT
	}
	var st PullStats
	start := clock.Now()
	for _, layer := range img.Layers {
		if node.hasLayer(layer.ID) {
			st.LayersCached++
			continue
		}
		st.LayersFetched++
		transfer := layer.Size
		if layer.Store != nil && layer.Refs != nil {
			transfer = 0
			for _, cr := range layer.Refs {
				info, err := layer.Store.Stat(cr)
				if err != nil {
					continue
				}
				if node.hasChunk(layer.Store, cr) {
					st.BytesDeduped += info.Size
					continue
				}
				// The shared cache tier is consulted before the network:
				// a chunk any sibling mount (or an earlier pull) already
				// materialized is fetched intra-cluster, not from the
				// registry.
				if node.Shared != nil && node.Shared.Contains(cachesvc.ChunkKey(cr)) {
					st.BytesFromCache += info.Size
					node.addChunk(layer.Store, cr)
					continue
				}
				transfer += info.Size
				node.addChunk(layer.Store, cr)
				// Backfill: chunks this pull paid the network for are
				// seeded into the tier so the next pull (and every
				// mount's cold read) hits. Seed is the epoch-free admin
				// path — chunk content is immutable.
				if node.Shared != nil {
					if data, err := layer.Store.Get(cr); err == nil {
						node.Shared.Seed(cachesvc.ChunkKey(cr), data)
					}
				}
			}
		}
		st.BytesFetched += transfer
		clock.Advance(r.PerLayerLatency)
		clock.Advance(time.Duration(transfer * int64(time.Second) / r.BandwidthBytesPerSec))
		node.addLayer(layer.ID)
	}
	node.addImage(img)
	st.Elapsed = clock.Now() - start
	return img, st, nil
}

// Node is a machine's local image/layer/chunk cache.
type Node struct {
	mu     sync.Mutex
	layers map[string]bool
	// chunks is keyed per backing store: a chunk ref identifies content
	// only within its store's namespace (opaque Mem refs from two
	// private stores collide by string, not by content).
	chunks map[blobstore.Store]map[blobstore.Ref]bool
	images map[string]*Image

	// Shared, when non-nil, is the shared cache tier this node's mounts
	// attach to. Pulls consult it chunk by chunk before touching the
	// registry network and seed it with whatever they do fetch.
	Shared *cachesvc.Service
}

// NewNode returns an empty node cache.
func NewNode() *Node {
	return &Node{
		layers: make(map[string]bool),
		chunks: make(map[blobstore.Store]map[blobstore.Ref]bool),
		images: make(map[string]*Image),
	}
}

func (n *Node) hasChunk(s blobstore.Store, ref blobstore.Ref) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.chunks[s][ref]
}

func (n *Node) addChunk(s blobstore.Store, ref blobstore.Ref) {
	n.mu.Lock()
	defer n.mu.Unlock()
	refs := n.chunks[s]
	if refs == nil {
		refs = make(map[blobstore.Ref]bool)
		n.chunks[s] = refs
	}
	refs[ref] = true
}

func (n *Node) hasLayer(id string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.layers[id]
}

func (n *Node) addLayer(id string) {
	n.mu.Lock()
	n.layers[id] = true
	n.mu.Unlock()
}

func (n *Node) addImage(img *Image) {
	n.mu.Lock()
	n.images[img.Ref()] = img
	n.mu.Unlock()
}

// Image returns a locally available image.
func (n *Node) Image(ref string) (*Image, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	img, ok := n.images[ref]
	return img, ok
}
