package slim

import (
	"testing"

	"cntr/internal/blobstore"
	"cntr/internal/hubdata"
	"cntr/internal/vfs"
)

// TestSlimOnSharedStoreIsNearlyFree: the slim image copies exact fat
// content, so building it on the fat image's store must dedup almost
// everything (the only new chunks come from block-tail layout shifts).
func TestSlimOnSharedStoreIsNearlyFree(t *testing.T) {
	cas := blobstore.NewCAS(blobstore.CASOptions{})
	spec := hubdata.Top50()[0]
	img, err := hubdata.BuildOn(cas, spec)
	if err != nil {
		t.Fatal(err)
	}
	physFat := cas.Stats().PhysicalBytes
	paths := hubdata.AppPaths(spec)
	slimImg, rep, err := SlimOn(cas, img, func(cli *vfs.Client) error {
		for _, p := range paths {
			if _, err := cli.ReadFile(p); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ReductionPct <= 0 {
		t.Fatalf("no reduction: %+v", rep)
	}
	grown := cas.Stats().PhysicalBytes - physFat
	if grown > slimImg.Size()/10 {
		t.Fatalf("slim image cost %d new physical bytes of %d logical — dedup failed",
			grown, slimImg.Size())
	}
}

// TestFleetDedupRatio: the first eight conventional Top-50 images built
// on one shared store dedup their common distro tooling. Image content
// is generated from the spec, so the byte counts behind the fleet-wide
// ratio the cntr-slim command reports (1.591 here) are pinned.
func TestFleetDedupRatio(t *testing.T) {
	cas := blobstore.NewCAS(blobstore.CASOptions{})
	for _, spec := range hubdata.Top50()[:8] {
		if _, err := hubdata.BuildOn(cas, spec); err != nil {
			t.Fatal(err)
		}
	}
	st := cas.Stats()
	if st.LogicalBytes != 36323492 || st.PhysicalBytes != 22827172 {
		t.Fatalf("fleet holds %d logical bytes in %d physical (ratio %.3f), want 36323492 in 22827172",
			st.LogicalBytes, st.PhysicalBytes, st.DedupRatio())
	}
}
