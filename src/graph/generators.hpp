// Graph and update-stream generators.
//
// These produce the synthetic workloads of the experiment suite (DESIGN.md
// §5). Update streams are generated from their own seed, independently of
// any structure's internal coins — this realizes the paper's *oblivious
// adversary* model.
#pragma once

#include <cstdint>
#include <vector>

#include "util/rng.hpp"
#include "util/types.hpp"

namespace parspan {

/// m distinct uniformly random edges on n vertices (Erdős–Rényi G(n, m)).
std::vector<Edge> gen_erdos_renyi(size_t n, size_t m, uint64_t seed);

/// 2D grid graph on rows x cols vertices (4-neighborhood).
std::vector<Edge> gen_grid(size_t rows, size_t cols);

/// Cycle on n vertices.
std::vector<Edge> gen_cycle(size_t n);

/// Path on n vertices.
std::vector<Edge> gen_path(size_t n);

/// Complete graph on n vertices (use only for small n).
std::vector<Edge> gen_complete(size_t n);

/// Star centered at vertex 0.
std::vector<Edge> gen_star(size_t n);

/// Random d-regular-ish graph via d/2 superposed random perfect matchings
/// on a shuffled cycle (multi-edges removed, so degrees are <= d).
std::vector<Edge> gen_random_regular(size_t n, size_t d, uint64_t seed);

/// One batch of a dynamic update stream.
struct UpdateBatch {
  std::vector<Edge> insertions;
  std::vector<Edge> deletions;
};

/// Decremental stream: deletes all of `edges` in random order, in batches
/// of `batch_size` (last batch may be smaller).
std::vector<UpdateBatch> gen_decremental_stream(std::vector<Edge> edges,
                                                size_t batch_size,
                                                uint64_t seed);

/// Sliding-window stream over a universe of edges: starts from the first
/// `window` edges; each batch deletes the `batch_size` oldest live edges and
/// inserts the next `batch_size` unseen ones. Models, e.g., a network whose
/// links churn over time. Returns (initial_edges, batches).
std::pair<std::vector<Edge>, std::vector<UpdateBatch>> gen_sliding_window(
    size_t n, size_t universe_m, size_t window, size_t batch_size,
    size_t num_batches, uint64_t seed);

/// Mixed stream on a fixed vertex set: each batch deletes `batch_size/2`
/// random live edges and inserts `batch_size/2` random absent ones,
/// starting from `initial` edges. Returns (initial_edges, batches).
std::pair<std::vector<Edge>, std::vector<UpdateBatch>> gen_mixed_stream(
    size_t n, size_t initial_m, size_t batch_size, size_t num_batches,
    uint64_t seed);

}  // namespace parspan
