// Command census is the fixture of the root census test: the checker must
// report exactly lib.TestOnly, lib.unused, lib.A and lib.B.
package main

import (
	"fmt"

	"census/internal/lib"
)

func main() {
	fmt.Println(lib.Live(lib.T{N: 1}))
}
