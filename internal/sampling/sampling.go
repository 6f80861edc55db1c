// Package sampling holds the parallel helpers every chunked subsystem
// shares: the worker-count clamp, the seed derivation of per-chunk
// streams, and the chunk scheduler with its pool interface (pool.go).
// Chunk boundaries depend only on the workload, each chunk derives its own
// stream from SeedStream, and chunk results fold in chunk order, so a fixed
// seed yields bit-identical results for every worker count. The S2BDD
// stratum sampler in internal/core, which also draws the paper's plain
// Monte Carlo and Horvitz–Thompson baselines (Section 3.2.2) as its root
// stratum, the BDD layer expander in internal/bdd and analysis all build
// on them, so the clamping and seeding rules live in exactly one place.
// The package keeps its name, which the benchmark module imports.
package sampling

import "runtime"

// ChunkSize is the number of possible worlds per deterministic work unit
// of analysis's shared world sampling. Chunk boundaries depend only on the
// sample budget — never on the worker count — which is what makes results
// worker-count independent.
const ChunkSize = 512

// ClampWorkers normalizes a requested worker count: non-positive values
// select GOMAXPROCS, and the count never exceeds total (when total > 0), so
// no caller ever spawns an idle goroutine. Every parallel entry point in the
// module routes its worker count through here.
func ClampWorkers(workers, total int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if total > 0 && workers > total {
		workers = total
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// mix64 is the SplitMix64 finalizer: a bijective avalanche over uint64.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// SeedStream derives an independent PCG seed from a base seed and a
// coordinate tuple (e.g. (layer, stratum, chunk)). The derivation is a pure
// function of its inputs, so parallel schedules built on it are reproducible
// regardless of which worker executes which unit.
func SeedStream(seed uint64, coords ...uint64) uint64 {
	h := mix64(seed ^ 0x9e3779b97f4a7c15)
	for _, c := range coords {
		h = mix64(h ^ mix64(c+0x2545f4914f6cdd1d))
	}
	return h
}
