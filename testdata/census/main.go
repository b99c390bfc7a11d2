// Command census is the fixture of the root census test: the checker must
// report exactly lib.TestOnly, lib.unused, lib.A, lib.B and
// facade.Uncalled.
package main

import (
	"fmt"

	"census/facade"
	"census/internal/lib"
)

func main() {
	fmt.Println(lib.Live(lib.T{N: 1}), facade.Called())
}
