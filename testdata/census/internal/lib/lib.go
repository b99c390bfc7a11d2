// Package lib holds one declaration of each kind the census tells apart.
package lib

import "strconv"

// T is live: main passes one to Live.
type T struct{ N int }

// String is reached through fmt.Stringer, which no use names.
func (t T) String() string { return strconv.Itoa(t.N) }

// Live is called from main.
func Live(t T) string { return t.String() }

// TestOnly is exported, but only lib_test.go calls it.
func TestOnly() int { return 1 }

func unused() {}

// A is dead, and so is B, which only A calls.
func A() int { return B() }

// B is reached only from A.
func B() int { return 2 }
