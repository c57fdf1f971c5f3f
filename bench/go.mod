// The benchmark is its own module so that building it never changes
// what `go build ./...` and `go test ./...` cover at the repo root.
// The module path sits under `bate/`, which is what lets it import
// the parent's internal packages.
module bate/bench

go 1.22

require bate v0.0.0

replace bate => ../
