package slim

import (
	"fmt"
	"testing"

	"cntr/internal/container"
	"cntr/internal/hubdata"
	"cntr/internal/vfs"
)

func TestRecorderTracksOpens(t *testing.T) {
	img, err := container.BuildImage("x", "v", container.ImageConfig{},
		container.LayerSpec{ID: "l", Files: []container.FileSpec{
			{Path: "/bin/app", Size: 10, Executable: true},
			{Path: "/bin/unused", Size: 10},
		}})
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(img.RootFS())
	cli := vfs.NewClient(rec, vfs.Root())
	if _, err := cli.ReadFile("/bin/app"); err != nil {
		t.Fatal(err)
	}
	acc := rec.Accessed()
	if len(acc) != 1 || acc[0] != "/bin/app" {
		t.Fatalf("accessed = %v", acc)
	}
}

func TestSlimKeepsOnlyAccessed(t *testing.T) {
	spec := hubdata.Top50()[0] // nginx
	img, err := hubdata.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	appPaths := hubdata.AppPaths(spec)
	slimImg, rep, err := Slim(img, func(cli *vfs.Client) error {
		for _, p := range appPaths {
			if _, err := cli.ReadFile(p); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.SlimFiles != len(appPaths) {
		t.Fatalf("slim files = %d, want %d", rep.SlimFiles, len(appPaths))
	}
	if rep.ReductionPct < 50 {
		t.Fatalf("nginx reduction = %.1f%%, expected substantial", rep.ReductionPct)
	}
	// The slim image must still serve the application (§5.3: "we tested
	// to validate that the smaller containers still provide the same
	// functionality").
	if err := Validate(slimImg, appPaths, img); err != nil {
		t.Fatalf("slim image broken: %v", err)
	}
}

// TestFigure5 reproduces §5.3: mean reduction ≈66.6% over the Top-50,
// >75% of images between 60% and 97%, and exactly the six Go-binary
// images below 10%.
func TestFigure5(t *testing.T) {
	specs := hubdata.Top50()
	if len(specs) != 50 {
		t.Fatalf("dataset has %d images, want 50", len(specs))
	}
	var reports []Report
	for _, spec := range specs {
		img, err := hubdata.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		paths := hubdata.AppPaths(spec)
		_, rep, err := Slim(img, func(cli *vfs.Client) error {
			for _, p := range paths {
				if _, err := cli.ReadFile(p); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		reports = append(reports, rep)
	}
	// The dataset and the slimmer are deterministic; the mean is pinned
	// at the precision the cntr-slim command prints it.
	if mean := fmt.Sprintf("%.1f", Mean(reports)); mean != "66.0" {
		t.Fatalf("mean reduction = %s%%, want 66.0%% (paper reports 66.6%%)", mean)
	}
	below10 := 0
	between60and97 := 0
	for _, r := range reports {
		if r.ReductionPct < 10 {
			below10++
		}
		if r.ReductionPct >= 60 && r.ReductionPct <= 97 {
			between60and97++
		}
	}
	if below10 != 6 {
		t.Fatalf("%d images below 10%%, paper reports 6 (the Go binaries)", below10)
	}
	if float64(between60and97)/float64(len(reports)) < 0.75 {
		t.Fatalf("only %d/50 images in [60%%,97%%], paper reports >75%%", between60and97)
	}
	bins := Histogram(reports)
	total := 0
	for _, b := range bins {
		total += b
	}
	if total != 50 {
		t.Fatalf("histogram holds %d images", total)
	}
}

func TestHistogramBounds(t *testing.T) {
	bins := Histogram([]Report{{ReductionPct: -5}, {ReductionPct: 105}, {ReductionPct: 55}})
	if bins[0] != 1 || bins[9] != 1 || bins[5] != 1 {
		t.Fatalf("bins = %v", bins)
	}
	if Mean(nil) != 0 {
		t.Fatal("empty mean")
	}
}

func TestTrimPrefixHelper(t *testing.T) {
	if trimPrefix("/a/b", "/a") != "/b" {
		t.Fatal("trimPrefix")
	}
}
