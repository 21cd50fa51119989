// Command show is TestGuardFixture's program.
package main

import (
	"fmt"

	"fixture/lib"
)

func main() {
	fmt.Println(lib.Used{}.Name(), lib.Show(lib.ViaInterface{}))
}
