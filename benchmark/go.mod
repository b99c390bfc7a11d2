// The benchmark is a module of its own so that it builds from the files
// under benchmark/ plus the tree it measures, and so that the root
// module's `go build ./...` and `go test ./...` do not change with it.
// The module path keeps the tilespace/ prefix, which is what lets it
// import tilespace/internal/... .
module tilespace/benchmark

go 1.22

require tilespace v0.0.0

replace tilespace => ../
