// The benchmark is a module of its own so that the repository's
// go.mod, `go build ./...` and `go test ./...` are untouched by it.
// The module path sits under "synergy/", which is what lets it import
// synergy/internal/... through the replace below.
module synergy/bench

go 1.22

require synergy v0.0.0

replace synergy => ../
