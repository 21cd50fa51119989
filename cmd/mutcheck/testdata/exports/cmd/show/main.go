// Command show is TestGuardFixture's program.
package main

import (
	"flag"
	"fmt"

	"fixture/lib"
)

func main() {
	var cfg lib.Config
	flag.IntVar(&cfg.Limit, "limit", 1, "how many to show")
	flag.Parse()
	cfg.Defaults()
	cfg.Hits[0]++
	if cfg.Verbose {
		fmt.Println(cfg.Limit, cfg.Hits, cfg.Depth)
	}
	fmt.Println(lib.Used{}.Name(), lib.Show(lib.ViaInterface{}))
}
