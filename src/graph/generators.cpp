#include "graph/generators.hpp"

#include <algorithm>
#include <cassert>
#include <unordered_set>

#include "parallel/primitives.hpp"

namespace parspan {

namespace {

/// Deduplicates by canonical key, drops self-loops.
std::vector<Edge> canonicalize(std::vector<EdgeKey> keys) {
  sort_unique(keys);
  std::vector<Edge> out;
  out.reserve(keys.size());
  for (EdgeKey k : keys) {
    Edge e = edge_from_key(k);
    if (e.u != e.v) out.push_back(e);
  }
  return out;
}

}  // namespace

std::vector<Edge> gen_erdos_renyi(size_t n, size_t m, uint64_t seed) {
  assert(n >= 2);
  size_t max_m = n * (n - 1) / 2;
  m = std::min(m, max_m);
  Rng rng(seed);
  std::unordered_set<EdgeKey> chosen;
  chosen.reserve(2 * m);
  // Rejection sampling is fine while m << n^2; fall back to dense shuffle
  // when the graph is dense.
  if (m * 3 < max_m) {
    while (chosen.size() < m) {
      VertexId u = VertexId(rng.next_below(n));
      VertexId v = VertexId(rng.next_below(n));
      if (u == v) continue;
      chosen.insert(edge_key(u, v));
    }
    std::vector<EdgeKey> keys(chosen.begin(), chosen.end());
    return canonicalize(std::move(keys));
  }
  std::vector<EdgeKey> all;
  all.reserve(max_m);
  for (VertexId u = 0; u < n; ++u)
    for (VertexId v = u + 1; v < n; ++v) all.push_back(edge_key(u, v));
  for (size_t i = all.size(); i > 1; --i)
    std::swap(all[i - 1], all[rng.next_below(i)]);
  all.resize(m);
  return canonicalize(std::move(all));
}

std::vector<Edge> gen_grid(size_t rows, size_t cols) {
  std::vector<Edge> out;
  out.reserve(2 * rows * cols);
  auto id = [&](size_t r, size_t c) { return VertexId(r * cols + c); };
  for (size_t r = 0; r < rows; ++r)
    for (size_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) out.emplace_back(id(r, c), id(r, c + 1));
      if (r + 1 < rows) out.emplace_back(id(r, c), id(r + 1, c));
    }
  return out;
}

std::vector<Edge> gen_cycle(size_t n) {
  std::vector<Edge> out = gen_path(n);
  if (n >= 3) out.emplace_back(VertexId(n - 1), VertexId(0));
  return out;
}

std::vector<Edge> gen_path(size_t n) {
  std::vector<Edge> out;
  out.reserve(n);
  for (size_t i = 0; i + 1 < n; ++i)
    out.emplace_back(VertexId(i), VertexId(i + 1));
  return out;
}

std::vector<Edge> gen_complete(size_t n) {
  std::vector<Edge> out;
  out.reserve(n * (n - 1) / 2);
  for (VertexId u = 0; u < n; ++u)
    for (VertexId v = u + 1; v < n; ++v) out.emplace_back(u, v);
  return out;
}

std::vector<Edge> gen_star(size_t n) {
  std::vector<Edge> out;
  out.reserve(n > 0 ? n - 1 : 0);
  for (VertexId v = 1; v < n; ++v) out.emplace_back(VertexId(0), v);
  return out;
}

std::vector<Edge> gen_random_regular(size_t n, size_t d, uint64_t seed) {
  Rng rng(seed);
  std::vector<EdgeKey> keys;
  std::vector<VertexId> perm(n);
  for (size_t round = 0; round < (d + 1) / 2; ++round) {
    for (size_t i = 0; i < n; ++i) perm[i] = VertexId(i);
    for (size_t i = n; i > 1; --i)
      std::swap(perm[i - 1], perm[rng.next_below(i)]);
    // Hamiltonian cycle over the permutation contributes degree 2.
    for (size_t i = 0; i < n; ++i) {
      VertexId u = perm[i], v = perm[(i + 1) % n];
      if (u != v) keys.push_back(edge_key(u, v));
    }
  }
  return canonicalize(std::move(keys));
}

std::vector<UpdateBatch> gen_decremental_stream(std::vector<Edge> edges,
                                                size_t batch_size,
                                                uint64_t seed) {
  Rng rng(seed);
  for (size_t i = edges.size(); i > 1; --i)
    std::swap(edges[i - 1], edges[rng.next_below(i)]);
  std::vector<UpdateBatch> out;
  for (size_t lo = 0; lo < edges.size(); lo += batch_size) {
    UpdateBatch b;
    size_t hi = std::min(edges.size(), lo + batch_size);
    b.deletions.assign(edges.begin() + lo, edges.begin() + hi);
    out.push_back(std::move(b));
  }
  return out;
}

std::pair<std::vector<Edge>, std::vector<UpdateBatch>> gen_sliding_window(
    size_t n, size_t universe_m, size_t window, size_t batch_size,
    size_t num_batches, uint64_t seed) {
  std::vector<Edge> universe = gen_erdos_renyi(n, universe_m, seed);
  Rng rng(seed ^ 0xabcdef);
  for (size_t i = universe.size(); i > 1; --i)
    std::swap(universe[i - 1], universe[rng.next_below(i)]);
  window = std::min(window, universe.size());
  std::vector<Edge> initial(universe.begin(), universe.begin() + window);
  std::vector<UpdateBatch> batches;
  size_t head = window;  // next unseen edge
  size_t tail = 0;       // oldest live edge
  for (size_t b = 0; b < num_batches; ++b) {
    UpdateBatch ub;
    for (size_t i = 0; i < batch_size && head < universe.size(); ++i)
      ub.insertions.push_back(universe[head++]);
    for (size_t i = 0; i < batch_size && tail < head; ++i)
      ub.deletions.push_back(universe[tail++]);
    if (ub.insertions.empty() && ub.deletions.empty()) break;
    batches.push_back(std::move(ub));
  }
  return {std::move(initial), std::move(batches)};
}

std::pair<std::vector<Edge>, std::vector<UpdateBatch>> gen_mixed_stream(
    size_t n, size_t initial_m, size_t batch_size, size_t num_batches,
    uint64_t seed) {
  std::vector<Edge> initial = gen_erdos_renyi(n, initial_m, seed);
  Rng rng(seed ^ 0x5eed);
  std::unordered_set<EdgeKey> live;
  for (const Edge& e : initial) live.insert(e.key());
  std::vector<EdgeKey> live_vec(live.begin(), live.end());
  std::vector<UpdateBatch> batches;
  for (size_t b = 0; b < num_batches; ++b) {
    UpdateBatch ub;
    size_t half = batch_size / 2;
    // Deletions: random live edges.
    for (size_t i = 0; i < half && !live_vec.empty(); ++i) {
      size_t j = rng.next_below(live_vec.size());
      EdgeKey k = live_vec[j];
      live_vec[j] = live_vec.back();
      live_vec.pop_back();
      if (!live.erase(k)) {
        --i;
        continue;
      }
      ub.deletions.push_back(edge_from_key(k));
    }
    // Insertions: random absent edges.
    size_t inserted = 0, guard = 0;
    while (inserted < half && guard++ < 100 * half + 100) {
      VertexId u = VertexId(rng.next_below(n));
      VertexId v = VertexId(rng.next_below(n));
      if (u == v) continue;
      EdgeKey k = edge_key(u, v);
      if (live.count(k)) continue;
      live.insert(k);
      live_vec.push_back(k);
      ub.insertions.push_back(edge_from_key(k));
      ++inserted;
    }
    batches.push_back(std::move(ub));
  }
  return {std::move(initial), std::move(batches)};
}

}  // namespace parspan
