// The benchmark is a module of its own, built from this directory by
// run.sh. It measures the engine in the repository around it, which it
// imports as genealog/internal/...: the module path below keeps those
// packages importable.
module genealog/bench

go 1.24.0

require genealog v0.0.0

replace genealog => ../
