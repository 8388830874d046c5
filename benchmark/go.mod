// The benchmark is a module of its own so that it builds from its own
// directory with its own build file; the picpar/ path prefix keeps the
// parent module's internal packages importable.
module picpar/benchmark

go 1.22

require picpar v0.0.0

replace picpar => ../
