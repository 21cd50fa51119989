// The benchmark is a module of its own so that it has its own build
// file; its path sits under the program's module path, which is what
// lets it import cntr/internal/... packages.
module cntr/bench

go 1.24

require cntr v0.0.0

replace cntr => ../
