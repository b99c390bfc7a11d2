// Package facade is a library outside internal/: the census roots only
// package main, so its exports are live only if main reaches them.
package facade

// Called is live: main calls it.
func Called() int { return 3 }

// Uncalled is exported, but nothing calls it.
func Uncalled() int { return 4 }
