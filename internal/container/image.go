// Package container implements the container-runtime substrate: layered
// images, an image registry with a download-time model, a runtime that
// creates containers (namespaces, cgroups, MAC profiles, union root
// filesystems), and name-resolution frontends for the four engines the
// paper supports — Docker, LXC, rkt and systemd-nspawn (§4).
package container

import (
	"fmt"
	"strings"

	"cntr/internal/blobstore"
	"cntr/internal/memfs"
	"cntr/internal/unionfs"
	"cntr/internal/vfs"
)

// FileSpec describes one file in an image layer.
type FileSpec struct {
	Path string
	// Size is the file's size in bytes. When Content is nil the file is
	// filled with deterministic padding of this size.
	Size int64
	// Content, when non-nil, is the exact file content (Size ignored).
	Content []byte
	// Mode defaults to 0644 (0755 for executables).
	Mode vfs.Mode
	// Executable marks binaries.
	Executable bool
}

// LayerSpec is a buildable image layer.
type LayerSpec struct {
	ID    string
	Files []FileSpec
}

// Layer is a built, immutable image layer.
type Layer struct {
	ID   string
	FS   vfs.FS
	Size int64 // total content bytes, the unit of registry transfer
	// Store is the backend blob store the layer's content lives in, and
	// Refs the block references backing it — the chunk-level identity a
	// registry transfers and dedups by. Both are nil for layers built
	// on a non-store filesystem.
	Store blobstore.Store
	Refs  []blobstore.Ref
}

// PhysicalSize is the layer's deduped storage footprint: unique chunk
// bytes, so content repeated within the layer counts once. Layers
// without chunk refs report their logical Size.
func (l *Layer) PhysicalSize() int64 {
	if l.Store == nil || l.Refs == nil {
		return l.Size
	}
	seen := make(map[blobstore.Ref]bool, len(l.Refs))
	var total int64
	for _, ref := range l.Refs {
		if seen[ref] {
			continue
		}
		seen[ref] = true
		if info, err := l.Store.Stat(ref); err == nil {
			total += info.Size
		}
	}
	return total
}

// ImageConfig is the runtime configuration baked into an image.
type ImageConfig struct {
	Cmd        []string
	Env        []string
	WorkingDir string
	// Entrypoint names the main binary (for engines that report it).
	Entrypoint string
}

// Image is a named stack of layers plus config.
type Image struct {
	Name   string
	Tag    string
	Layers []*Layer // base first
	Config ImageConfig
	// Store is the backend blob store the image was built on (nil for
	// images whose layers own private storage). Root filesystems
	// instantiated from the image write through it, so copy-up dedups
	// against the image's own chunks.
	Store blobstore.Store
}

// Ref renders the canonical name:tag reference.
func (img *Image) Ref() string {
	tag := img.Tag
	if tag == "" {
		tag = "latest"
	}
	return img.Name + ":" + tag
}

// Size is the total *logical* transfer size of all layers: bytes shared
// between layers (or repeated within one) are counted every time they
// appear, the way a registry bills uncompressed layer tarballs. For the
// deduped storage footprint, use PhysicalSize.
func (img *Image) Size() int64 {
	var total int64
	for _, l := range img.Layers {
		total += l.Size
	}
	return total
}

// PhysicalSize is the image's deduped storage footprint: unique chunk
// bytes across all layers, so content shared between layers — the
// double-counting Size and UnionSize are subject to — is counted once.
// Layers without chunk refs contribute their logical size.
func (img *Image) PhysicalSize() int64 {
	var total int64
	// Unique refs are tracked per store: refs from different stores are
	// different namespaces even when their hashes collide by content.
	seen := make(map[blobstore.Store]map[blobstore.Ref]bool)
	for _, l := range img.Layers {
		if l.Store == nil || l.Refs == nil {
			total += l.Size
			continue
		}
		refs := seen[l.Store]
		if refs == nil {
			refs = make(map[blobstore.Ref]bool)
			seen[l.Store] = refs
		}
		for _, ref := range l.Refs {
			if refs[ref] {
				continue
			}
			refs[ref] = true
			if info, err := l.Store.Stat(ref); err == nil {
				total += info.Size
			}
		}
	}
	return total
}

// DedupRatio is the image's logical size over its physical (deduped)
// size: 1.0 means nothing shared.
func (img *Image) DedupRatio() float64 {
	phys := img.PhysicalSize()
	if phys == 0 {
		return 1.0
	}
	return float64(img.Size()) / float64(phys)
}

// FileCount counts files across layers (union count may be lower when
// layers shadow each other).
func (img *Image) FileCount() int {
	n := 0
	for _, l := range img.Layers {
		cli := vfs.NewClient(l.FS, vfs.Root())
		cli.WalkTree("/", func(path string, attr vfs.Attr) error {
			if attr.Type == vfs.TypeRegular {
				n++
			}
			return nil
		})
	}
	return n
}

// BuildLayerOn materializes a LayerSpec on the given backend store (nil
// means a private map-backed store). Layers built on one shared
// content-addressed store dedup their common content against each
// other — the registry-scale sharing fat/slim image pairs rely on.
func BuildLayerOn(store blobstore.Store, spec LayerSpec) (*Layer, error) {
	fs := memfs.New(memfs.Options{Store: store})
	cli := vfs.NewClient(fs, vfs.Root())
	var total int64
	for _, f := range spec.Files {
		dir := parentDir(f.Path)
		if dir != "/" && dir != "" {
			if err := cli.MkdirAll(dir, 0o755); err != nil {
				return nil, fmt.Errorf("layer %s: mkdir %s: %w", spec.ID, dir, err)
			}
		}
		mode := f.Mode
		if mode == 0 {
			if f.Executable {
				mode = 0o755
			} else {
				mode = 0o644
			}
		}
		content := f.Content
		if content == nil {
			content = padding(f.Path, f.Size)
		}
		if err := cli.WriteFile(f.Path, content, mode); err != nil {
			return nil, fmt.Errorf("layer %s: write %s: %w", spec.ID, f.Path, err)
		}
		total += int64(len(content))
	}
	return &Layer{ID: spec.ID, FS: fs, Size: total, Store: fs.Store(), Refs: fs.BlockRefs()}, nil
}

// padding produces deterministic filler content so layer sizes are exact
// without storing megabytes of zeros per file... it stores them, but the
// bytes are cheap in a simulation and keep read paths honest.
func padding(seed string, size int64) []byte {
	if size <= 0 {
		return nil
	}
	out := make([]byte, size)
	h := uint64(1469598103934665603)
	for _, c := range seed {
		h = (h ^ uint64(c)) * 1099511628211
	}
	for i := range out {
		h = h*6364136223846793005 + 1442695040888963407
		out[i] = byte(h >> 56)
	}
	return out
}

// BuildImage assembles an image from layer specs with private storage.
func BuildImage(name, tag string, cfg ImageConfig, layers ...LayerSpec) (*Image, error) {
	return BuildImageOn(nil, name, tag, cfg, layers...)
}

// BuildImageOn assembles an image whose layers all live on the given
// backend store (nil means private per-layer stores). Building a fleet
// of images on one shared content-addressed store is what makes their
// common tooling bytes dedup.
func BuildImageOn(store blobstore.Store, name, tag string, cfg ImageConfig, layers ...LayerSpec) (*Image, error) {
	img := &Image{Name: name, Tag: tag, Config: cfg, Store: store}
	for _, spec := range layers {
		l, err := BuildLayerOn(store, spec)
		if err != nil {
			return nil, err
		}
		img.Layers = append(img.Layers, l)
	}
	return img, nil
}

// RootFS instantiates a fresh writable union filesystem over the image's
// layers (the container's root). The upper layer writes through the
// image's backend store, so copy-up of unmodified content costs no
// physical bytes on a content-addressed store.
func (img *Image) RootFS() *unionfs.FS {
	// unionfs wants top-most first; image layers are base-first.
	lowers := make([]vfs.FS, 0, len(img.Layers))
	for i := len(img.Layers) - 1; i >= 0; i-- {
		lowers = append(lowers, img.Layers[i].FS)
	}
	return unionfs.NewWith(unionfs.Options{Store: img.Store}, lowers...)
}

// ListFiles returns the union view of all regular files in the image
// with their sizes, used by the slimming analysis.
func (img *Image) ListFiles() map[string]int64 {
	root := img.RootFS()
	cli := vfs.NewClient(root, vfs.Root())
	out := make(map[string]int64)
	cli.WalkTree("/", func(path string, attr vfs.Attr) error {
		if attr.Type == vfs.TypeRegular {
			out[path] = attr.Size
		}
		return nil
	})
	return out
}

// UnionSize sums the union view's file sizes (what a flattened image
// would transfer). Like Size this is a logical measure: bytes the
// surviving files share with each other are still counted per file —
// PhysicalSize reports the deduped footprint.
func (img *Image) UnionSize() int64 {
	var total int64
	for _, size := range img.ListFiles() {
		total += size
	}
	return total
}

func parentDir(path string) string {
	parts := vfs.SplitPath(path)
	if len(parts) <= 1 {
		return "/"
	}
	return "/" + strings.Join(parts[:len(parts)-1], "/")
}
