// Image-slimming example: the §5.3 workflow on one image. Profile what
// the application touches, build the slim image, measure the saved
// deployment time through the registry's bandwidth model, and keep the
// stripped tools available as a fat image for cntr attach.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"cntr/internal/container"
	"cntr/internal/hubdata"
	"cntr/internal/sim"
	"cntr/internal/slim"
	"cntr/internal/vfs"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	spec := hubdata.Top50()[2] // mysql
	img, err := hubdata.Build(spec)
	if err != nil {
		return err
	}
	paths := hubdata.AppPaths(spec)
	slimImg, rep, err := slim.Slim(img, func(cli *vfs.Client) error {
		for _, p := range paths {
			if _, err := cli.ReadFile(p); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s: %d files / %.1f MB -> %d files / %.1f MB (%.1f%% reduction)\n",
		rep.Name, rep.OriginalFiles, float64(rep.OriginalBytes)/(1<<20),
		rep.SlimFiles, float64(rep.SlimBytes)/(1<<20), rep.ReductionPct)

	// Deployment time: downloads dominate container start (§1).
	reg := container.NewRegistry()
	reg.Push(img)
	reg.Push(slimImg)
	clock := sim.NewClock()
	_, fatPull, err := reg.Pull(clock, container.NewNode(), img.Ref())
	if err != nil {
		return err
	}
	_, slimPull, err := reg.Pull(clock, container.NewNode(), slimImg.Ref())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "pull %-18s %v\n", img.Ref(), fatPull.Elapsed)
	fmt.Fprintf(w, "pull %-18s %v (%.1fx faster deployment)\n", slimImg.Ref(),
		slimPull.Elapsed, float64(fatPull.Elapsed)/float64(slimPull.Elapsed))
	_, err = fmt.Fprintln(w, "the stripped files stay available at runtime via: cntr attach <app> --fat mysql-tools")
	return err
}
