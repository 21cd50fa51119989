// Package slim reimplements the Docker Slim analysis the paper uses for
// its §5.3 effectiveness study: record which files a containerized
// application actually accesses (fanotify-style dynamic analysis, here
// the policy.Run recording that profiles derive from), then rebuild the
// image with only those files. The reduction across the Top-50 images
// (internal/hubdata) reproduces Figure 5: on average two thirds of a
// conventional image is tooling the application never reads — exactly
// the content Cntr serves on demand from a fat image instead.
package slim

import (
	"cntr/internal/blobstore"
	"cntr/internal/container"
	"cntr/internal/policy"
	"cntr/internal/vfs"
)

// Report is the outcome of slimming one image.
type Report struct {
	Name          string
	OriginalBytes int64
	SlimBytes     int64
	OriginalFiles int
	SlimFiles     int
	// ReductionPct is the Figure 5 metric.
	ReductionPct float64
}

// Slim profiles an image by running accessFn against a recorded view of
// its root filesystem, then builds the reduced image containing only the
// files the recording opened (plus their directory chains). The slim
// image gets private storage; see SlimOn.
func Slim(img *container.Image, accessFn func(cli *vfs.Client) error) (*container.Image, Report, error) {
	return SlimOn(nil, img, accessFn)
}

// SlimOn is Slim with the reduced image built on the given backend
// store. Slimming onto the same content-addressed store as the fat image
// costs almost no physical bytes: the slim layer copies exact file
// content, so every chunk dedups against the fat image's.
func SlimOn(store blobstore.Store, img *container.Image, accessFn func(cli *vfs.Client) error) (*container.Image, Report, error) {
	// The profile generated from the access run allows open at exactly
	// the files the application opened: those are the ones it needs.
	col := policy.NewCollector()
	cli := vfs.NewClient(vfs.Chain(img.RootFS(), col.NewRun()), vfs.Root())
	if err := accessFn(cli); err != nil {
		return nil, Report{}, err
	}
	opened := col.Profile(policy.GenOptions{}).Compile()

	files := img.ListFiles()
	keep := make(map[string]bool)
	for p := range files {
		if opened.Allows(vfs.KindOpen, p) {
			keep[p] = true
		}
	}
	var slimLayer container.LayerSpec
	slimLayer.ID = img.Name + "-slim"
	srcCli := vfs.NewClient(img.RootFS(), vfs.Root())
	var slimBytes int64
	for p := range keep {
		data, err := srcCli.ReadFile(p)
		if err != nil {
			return nil, Report{}, err
		}
		attr, _ := srcCli.Stat(p)
		slimLayer.Files = append(slimLayer.Files, container.FileSpec{
			Path: p, Content: data, Mode: attr.Mode & vfs.ModePerm,
			Executable: attr.Mode&0o111 != 0,
		})
		slimBytes += int64(len(data))
	}
	slimImg, err := container.BuildImageOn(store, img.Name+"-slim", "latest", img.Config, slimLayer)
	if err != nil {
		return nil, Report{}, err
	}
	var origBytes int64
	for _, size := range files {
		origBytes += size
	}
	rep := Report{
		Name:          img.Name,
		OriginalBytes: origBytes,
		SlimBytes:     slimBytes,
		OriginalFiles: len(files),
		SlimFiles:     len(keep),
	}
	if origBytes > 0 {
		rep.ReductionPct = 100 * float64(origBytes-slimBytes) / float64(origBytes)
	}
	return slimImg, rep, nil
}

// Histogram buckets reductions into 10%-wide bins (Figure 5's x-axis).
func Histogram(reports []Report) [10]int {
	var bins [10]int
	for _, r := range reports {
		b := int(r.ReductionPct / 10)
		if b < 0 {
			b = 0
		}
		if b > 9 {
			b = 9
		}
		bins[b]++
	}
	return bins
}

// Mean returns the average reduction percentage.
func Mean(reports []Report) float64 {
	if len(reports) == 0 {
		return 0
	}
	var sum float64
	for _, r := range reports {
		sum += r.ReductionPct
	}
	return sum / float64(len(reports))
}

// Validate checks that a slimmed image still serves the recorded paths
// with identical content.
func Validate(slimImg *container.Image, paths []string, orig *container.Image) error {
	slimCli := vfs.NewClient(slimImg.RootFS(), vfs.Root())
	origCli := vfs.NewClient(orig.RootFS(), vfs.Root())
	for _, p := range paths {
		want, err := origCli.ReadFile(p)
		if err != nil {
			continue // directories etc.
		}
		got, err := slimCli.ReadFile(p)
		if err != nil {
			return err
		}
		if string(got) != string(want) {
			return vfs.EIO
		}
	}
	return nil
}
