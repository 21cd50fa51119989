// Command cntr-slim runs the §5.3 docker-slim analysis over the
// synthetic Top-50 Docker Hub data set and prints the Figure 5
// histogram. Every image — fat and slim — is built on one shared
// backend store (selected with -backend, default the content-addressed
// chunk store), so alongside the paper's reduction numbers the run
// reports what a registry actually has to *store*: per-image and
// fleet-wide dedup ratios. The distro tooling the conventional images
// share, and the slim images' wholesale copies of fat content, dedup to
// a fraction of their logical bytes.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"cntr/internal/blobstore"
	"cntr/internal/hubdata"
	"cntr/internal/slim"
	"cntr/internal/vfs"
)

func newStore(backend string) (blobstore.Store, error) {
	switch backend {
	case "cas":
		return blobstore.NewCAS(blobstore.CASOptions{}), nil
	case "mem":
		return blobstore.NewMem(), nil
	default:
		return nil, fmt.Errorf("unknown backend %q (want cas or mem)", backend)
	}
}

func main() {
	backend := flag.String("backend", "cas",
		"blob store backing the fleet: cas (content-addressed, dedups) or mem (no dedup)")
	flag.Parse()

	store, err := newStore(*backend)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var reports []slim.Report
	var logicalFat, logicalSlim int64
	for _, spec := range hubdata.Top50() {
		img, err := hubdata.BuildOn(store, spec)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		paths := hubdata.AppPaths(spec)
		slimImg, rep, err := slim.SlimOn(store, img, func(cli *vfs.Client) error {
			for _, p := range paths {
				if _, err := cli.ReadFile(p); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		reports = append(reports, rep)
		logicalFat += img.Size()
		logicalSlim += slimImg.Size()
		fmt.Printf("%-16s %8.1f%% reduction (%d -> %d files)  dedup %.2fx\n",
			rep.Name, rep.ReductionPct, rep.OriginalFiles, rep.SlimFiles,
			img.DedupRatio())
	}
	fmt.Printf("\nmean reduction: %.1f%% (paper: 66.6%%)\n", slim.Mean(reports))
	fmt.Println("\nFigure 5 histogram (reduction % -> #images):")
	bins := slim.Histogram(reports)
	for i, n := range bins {
		fmt.Printf("%3d-%3d%% | %s (%d)\n", i*10, i*10+9, strings.Repeat("#", n), n)
	}

	st := store.Stats()
	fmt.Printf("\n== shared %s backend across the fleet (fat + slim) ==\n", *backend)
	fmt.Printf("logical bytes   %12d  (fat %d + slim %d)\n",
		st.LogicalBytes, logicalFat, logicalSlim)
	fmt.Printf("physical bytes  %12d  in %d blobs\n", st.PhysicalBytes, st.Blobs)
	fmt.Printf("fleet-wide dedup ratio: %.2fx\n", st.DedupRatio())
}
