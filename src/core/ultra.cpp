#include "core/ultra.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

#include "parallel/arena.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/primitives.hpp"
#include "util/rng.hpp"

namespace parspan {

namespace {

/// Per-executor scratch slot for the calling thread. The pool must be sized
/// to executor_slots() (serially) before any parallel compute phase starts:
/// work stealing lets ANY scheduler thread run a loop body regardless of the
/// active loop parallelism, so sizing by num_workers() alone would alias
/// slots across threads.
template <typename T>
T& slot_for_thread(std::vector<T>& pool) {
  return pool[size_t(worker_slot()) % pool.size()];
}

}  // namespace

UltraSparseSpanner::UltraSparseSpanner(size_t n,
                                       const std::vector<Edge>& edges,
                                       const UltraConfig& cfg)
    : n_(n), cfg_(cfg), graph_(n) {
  uint32_t x = std::max(2u, cfg.x);
  T_ = uint32_t(
      std::ceil(10.0 * double(x) * std::max(1.0, std::log2(double(x)))));
  Rng rng(hash_combine(cfg.seed, 0x17a));
  sampled_.assign(n, 0);
  rand_.assign(n, 0);
  bool any = false;
  for (VertexId v = 0; v < n; ++v) {
    sampled_[v] = rng.next_bool(1.0 / double(x)) ? 1 : 0;
    any |= sampled_[v];
    rand_[v] = hash_combine(cfg.seed, 0x9a0 + v);
  }
  if (!any && n > 0) sampled_[rng.next_below(n)] = 1;

  std::vector<Edge> applied = graph_.insert_edges(edges);

  // Heads, two phases (DESIGN.md §7.2): heavy/sampled heads are computed
  // and written first (they read adjacency only), then the light
  // Algorithm-5 balls run against them under parallel_for with per-thread
  // scratch. Writes are per-vertex disjoint, so both phases commit in the
  // parallel loop itself.
  head_.assign(n, kBot);
  par_edge_.assign(n, kNoEdge);
  reach_.assign(n, 0);
  scratch_.resize(size_t(std::max(1, executor_slots())));
  ArenaScope head_scratch;  // res is construction-scoped (DESIGN.md §12.5)
  ArenaVector<HeadResult> res(n);
  parallel_for(0, n, [&](size_t v) {
    if (sampled_[v] || heavy(VertexId(v))) {
      res[v] = compute_head(VertexId(v), slot_for_thread(scratch_));
      head_[v] = res[v].head;
    }
  });
  parallel_for(0, n, [&](size_t v) {
    if (!sampled_[v] && !heavy(VertexId(v))) {
      res[v] = compute_head(VertexId(v), slot_for_thread(scratch_));
      head_[v] = res[v].head;
    }
  });

  // H1 parent edges + buckets + H2 edges (serial, canonical edge order).
  h2_ = std::make_unique<SmallComponentForest>(n);
  std::vector<Edge> h2_init;
  for (const Edge& e : applied) {
    ledger_.add(pair_key_of(e), e.key());
    if (edge_in_h2(e)) h2_init.push_back(e);
  }
  for (VertexId v = 0; v < n; ++v) {
    const HeadResult& hr = res[v];
    assert(hr.head == head_[v]);
    par_edge_[v] = h1_edge(v, hr);
    reach_[v] = hr.reach;
  }
  h2_->update(h2_init, {});

  // Next-level structure over the contracted graph (vertex set = V).
  SparseSpannerConfig nc = cfg.next;
  nc.seed = hash_combine(cfg.seed, 0x4e7);
  next_ = std::make_unique<SparseSpanner>(n, ledger_.pairs(), nc);
  ledger_.forget_touched();

  // Compose S = H1 ∪ forest(H2) ∪ rep(S_next).
  for (VertexId v = 0; v < n; ++v)
    if (par_edge_[v] != kNoEdge) s_mem_.insert(par_edge_[v]);
  for (const Edge& e : h2_->forest_edges()) {
    bool fresh = s_mem_.insert(e.key());
    assert(fresh);
    (void)fresh;
  }
  used_rep_.apply({next_->spanner_edges(), {}}, {}, rep_of(), [](EdgeKey) {},
                  [&](EdgeKey rep) {
                    bool fresh = s_mem_.insert(rep);
                    assert(fresh);
                    (void)fresh;
                  });
}

uint32_t UltraSparseSpanner::stretch_bound() const {
  // Lemma 5.1: 21 x log x (L+1); we use the implemented radius T_ directly:
  // 2T (H2 / intra-cluster detours) per hop of the next-level spanner.
  return (2 * T_ + 1) * (next_->stretch_bound() + 1) +
         next_->stretch_bound();
}

UltraSparseSpanner::HeadResult UltraSparseSpanner::compute_head(
    VertexId v, HeadScratch& hs) const {
  HeadResult hr;
  if (sampled_[v]) {
    hr.head = v;
    return hr;
  }
  if (heavy(v)) {
    // Sampled neighbor with minimum rand; else self (v joins D').
    VertexId best = kNoVertex;
    for (VertexId w : graph_.neighbors(v))
      if (sampled_[w] && (best == kNoVertex || rand_[w] < rand_[best]))
        best = w;
    hr.head = best == kNoVertex ? v : best;
    hr.par = best;
    return hr;
  }
  // Algorithm 5: bounded BFS of radius T_, no branching through heavy
  // vertices; early exit once deeper levels cannot beat the best candidate.
  // Ball state lives in the epoch-stamped scratch: O(ball) words touched,
  // no hashing, no per-call allocation after warm-up.
  hs.ensure(n_);
  ++hs.epoch;
  hs.frontier.clear();
  hs.frontier.push_back(v);
  hs.stamp[v] = hs.epoch;
  hs.dist[v] = 0;
  hs.par[v] = kNoVertex;
  size_t ball = 1;  // visited vertices
  // Candidate = (distance, rand, center, realizing vertex).
  uint32_t bd = UINT32_MAX;
  uint64_t br = 0;
  VertexId bc = kNoVertex, bw = kNoVertex;
  auto offer = [&](uint32_t d, VertexId center, VertexId via) {
    if (d > T_) return;
    if (d < bd || (d == bd && rand_[center] < br)) {
      bd = d;
      br = rand_[center];
      bc = center;
      bw = via;
    }
  };
  for (uint32_t level = 0; !hs.frontier.empty(); ++level) {
    // Examine this level's vertices for candidates.
    for (VertexId w : hs.frontier) {
      if (!heavy(w)) {
        if (sampled_[w]) offer(level, w, w);
      } else {
        VertexId hw = head_[w];
        assert(hw != kBot);
        if (hs.stamp[hw] == hs.epoch)
          offer(hs.dist[hw], hw, w);  // head visited: exact distance
        else
          offer(level + 1, hw, w);  // assume Dist(w) + 1
      }
    }
    if (level >= T_ || level >= bd) break;  // deeper cannot win
    hs.next.clear();
    for (VertexId w : hs.frontier) {
      if (heavy(w)) continue;  // no branching through heavy vertices
      for (VertexId z : graph_.neighbors(w)) {
        if (hs.stamp[z] == hs.epoch) continue;
        hs.stamp[z] = hs.epoch;
        hs.dist[z] = level + 1;
        hs.par[z] = w;
        hs.next.push_back(z);
        ++ball;
      }
    }
    std::swap(hs.frontier, hs.next);
  }
  if (bc != kNoVertex) {
    // The break above examined levels 0..bd: the result depends on no
    // vertex farther than the winning distance.
    hr.head = bc;
    hr.reach = bd;
    // Parent: first hop from v toward the realizing vertex bw (== the head
    // itself when adjacent). bw != v: v is light and unsampled, so it never
    // offers at level 0.
    VertexId walk = bw;
    while (hs.par[walk] != v) walk = hs.par[walk];
    hr.par = walk;
    return hr;
  }
  // No candidate: every visited vertex is light and unsampled, so the BFS
  // explored the component freely. The paper's rule: ⊥ iff the component
  // has at most 10 x log x vertices (a radius-truncated BFS has visited
  // more than T_ of them), else v stays its own unclustered vertex.
  hr.head = ball <= size_t(T_) ? kBot : v;
  hr.reach = T_;
  return hr;
}

const std::vector<VertexId>& UltraSparseSpanner::light_need_recompute(
    const std::vector<VertexId>& seeds) {
  // Algorithm 6: BFS of radius T_ from the seeds, branching through the
  // seeds and through light vertices. A light vertex z first reached at a
  // level above reach_[z] has no seed within its reach, so its head, parent
  // and reach stand (DESIGN.md §7.2): it is neither collected nor expanded.
  // Heavy non-seeds keep their heads and are never branched through; a
  // sampled non-seed has reach 0, so the level test skips it. The marks
  // are epoch-stamped and the buffers are members, so the sweep does not
  // allocate after warm-up; the result is sorted so the downstream
  // recompute and commit order is canonical.
  if (visit_mark_.size() < n_) visit_mark_.resize(n_, 0);
  ++mark_epoch_;
  a6_frontier_.assign(seeds.begin(), seeds.end());
  a6_out_.clear();
  for (VertexId s : seeds) {
    visit_mark_[s] = mark_epoch_;
    if (!heavy(s) && !sampled_[s]) a6_out_.push_back(s);
  }
  for (uint32_t level = 1; level <= T_ && !a6_frontier_.empty(); ++level) {
    a6_next_.clear();
    for (VertexId w : a6_frontier_) {
      for (VertexId z : graph_.neighbors(w)) {
        if (visit_mark_[z] == mark_epoch_) continue;
        visit_mark_[z] = mark_epoch_;
        if (heavy(z) || level > reach_[z]) continue;
        a6_next_.push_back(z);
        a6_out_.push_back(z);
      }
    }
    std::swap(a6_frontier_, a6_next_);
  }
  std::sort(a6_out_.begin(), a6_out_.end());
  return a6_out_;
}

EdgeKey UltraSparseSpanner::pair_key_of(Edge e) const {
  VertexId hu = head_[e.u], hv = head_[e.v];
  if (hu == kBot || hv == kBot || hu == hv) return kNoEdge;
  return edge_key(hu, hv);
}

void UltraSparseSpanner::commit_head(VertexId v, const HeadResult& hr) {
  // Move incident edges' bucket / H2 membership from the old head state to
  // the new one, and refresh the H1 parent contribution. Adjacency is
  // stable during a commit phase, so the neighbor span is iterated twice.
  auto nbrs = graph_.neighbors(v);
  for (VertexId w : nbrs) {
    Edge e(v, w);
    if (edge_in_h2(e)) h2_net_.remove(e.key());
    ledger_.remove(pair_key_of(e), e.key());
  }
  head_[v] = hr.head;
  for (VertexId w : nbrs) {
    Edge e(v, w);
    if (edge_in_h2(e)) h2_net_.add(e.key());
    ledger_.add(pair_key_of(e), e.key());
  }
  EdgeKey want = h1_edge(v, hr);
  if (par_edge_[v] != want) {
    if (par_edge_[v] != kNoEdge) s_remove(par_edge_[v]);
    par_edge_[v] = want;
    if (want != kNoEdge) s_add(want);
  }
}

void UltraSparseSpanner::s_add(EdgeKey ek) {
  // Deferred: an edge may change roles (H1 parent / H2 forest / pair
  // representative) within one batch; applying all removals before all
  // insertions at the end keeps S a true set.
  pending_add_.push_back(ek);
  s_delta_.add(ek);
}

void UltraSparseSpanner::s_remove(EdgeKey ek) {
  pending_rem_.push_back(ek);
  s_delta_.remove(ek);
}

SpannerDiff UltraSparseSpanner::update(const std::vector<Edge>& insertions,
                                       const std::vector<Edge>& deletions) {
  assert(s_delta_.empty() && h2_net_.empty());

  // --- Apply the batch to the flat graph; bookkeep per applied edge. The
  // applied lists come back canonical and key-sorted, which pins down every
  // bucket-representative election below. ---
  std::vector<Edge> removed = graph_.erase_edges(deletions);
  std::vector<VertexId> touched;
  touched.reserve(2 * (removed.size() + insertions.size()));
  for (const Edge& e : removed) {
    if (edge_in_h2(e)) h2_net_.remove(e.key());
    ledger_.remove(pair_key_of(e), e.key());
    // A dying parent edge leaves H1 immediately; the endpoint's head is
    // recomputed below.
    for (VertexId w : {e.u, e.v}) {
      if (par_edge_[w] == e.key()) {
        s_remove(par_edge_[w]);
        par_edge_[w] = kNoEdge;
      }
      touched.push_back(w);
    }
  }
  std::vector<Edge> added = graph_.insert_edges(insertions);
  for (const Edge& e : added) {
    ledger_.add(pair_key_of(e), e.key());
    if (edge_in_h2(e)) h2_net_.add(e.key());
    touched.push_back(e.u);
    touched.push_back(e.v);
  }
  sort_unique(touched);

  // --- Recomputation (paper §5.2): heavy seeds first, then Algorithm 6's
  // light set against the committed heavy heads. Each phase computes heads
  // in parallel (reads committed state only) and commits serially in
  // ascending vertex order (DESIGN.md §7.2). ---
  if (scratch_.size() < size_t(std::max(1, executor_slots())))
    scratch_.resize(size_t(std::max(1, executor_slots())));
  // Head-result arrays are the batch's big scratch: arena-backed, reclaimed
  // when this scope closes at the end of the recomputation (§12.5).
  ArenaScope recompute_scratch;
  ArenaVector<HeadResult> hres(touched.size());
  parallel_for(
      0, touched.size(),
      [&](size_t i) {
        VertexId v = touched[i];
        if (sampled_[v] || heavy(v))
          hres[i] = compute_head(v, slot_for_thread(scratch_));
      },
      /*grain=*/1);
  auto commit_if_changed = [&](VertexId v, const HeadResult& hr) {
    reach_[v] = hr.reach;
    if (hr.head != head_[v] || par_edge_[v] != h1_edge(v, hr))
      commit_head(v, hr);
  };
  for (size_t i = 0; i < touched.size(); ++i) {
    VertexId v = touched[i];
    if (!sampled_[v] && !heavy(v)) continue;  // light handled below
    commit_if_changed(v, hres[i]);
  }
  // Algorithm 6 reads the reaches stored before the batch: the heavy
  // commits above rewrite only seeds' reaches, which it does not read.
  const std::vector<VertexId>& lights = light_need_recompute(touched);
  ArenaVector<HeadResult> lres(lights.size());
  parallel_for(
      0, lights.size(),
      [&](size_t i) {
        lres[i] = compute_head(lights[i], slot_for_thread(scratch_));
      },
      /*grain=*/1);
  for (size_t i = 0; i < lights.size(); ++i)
    commit_if_changed(lights[i], lres[i]);

  // --- H2 forest update (the accumulator nets the membership churn and
  // drains it key-sorted). ---
  {
    SpannerDiff net = h2_net_.drain();
    SpannerDiff fd = h2_->update(net.inserted, net.removed);
    for (const Edge& e : fd.removed) s_remove(e.key());
    for (const Edge& e : fd.inserted) s_add(e.key());
  }

  // --- Next-level update and representative composition, touched pairs in
  // canonical key order. ---
  std::vector<Edge> next_ins, next_del, rep_changed;
  ledger_.drain(next_ins, next_del, rep_changed);
  used_rep_.apply(
      next_->update(next_ins, next_del), rep_changed, rep_of(),
      [&](EdgeKey ek) { s_remove(ek); }, [&](EdgeKey ek) { s_add(ek); });

  // Apply deferred S mutations: removals first, then insertions.
  for (EdgeKey ek : pending_rem_) {
    bool erased = s_mem_.erase(ek);
    assert(erased);
    (void)erased;
  }
  for (EdgeKey ek : pending_add_) {
    bool fresh = s_mem_.insert(ek);
    assert(fresh && "spanner components must stay disjoint");
    (void)fresh;
  }
  pending_rem_.clear();
  pending_add_.clear();

  return s_delta_.drain();
}

std::vector<Edge> UltraSparseSpanner::spanner_edges() const {
  std::vector<Edge> out;
  out.reserve(s_mem_.size());
  for (EdgeKey ek : s_mem_.sorted_keys()) out.push_back(edge_from_key(ek));
  return out;
}

bool UltraSparseSpanner::check_invariants() const {
  // Reference heads, H1 parent edges and reaches: heavy/sampled from
  // adjacency, light against the committed heavy heads. A vertex Algorithm 6
  // skipped must still hold what a fresh Algorithm 5 computes.
  HeadScratch hs;
  for (VertexId v = 0; v < n_; ++v) {
    HeadResult hr = compute_head(v, hs);
    if (hr.head != head_[v] || h1_edge(v, hr) != par_edge_[v] ||
        hr.reach != reach_[v])
      return false;
  }
  // H1 parent contributions: for clustered v the stored edge must connect v
  // to a live neighbor sharing v's head.
  for (VertexId v = 0; v < n_; ++v) {
    if (head_[v] == kBot || head_[v] == v) {
      if (par_edge_[v] != kNoEdge) return false;
      continue;
    }
    if (par_edge_[v] == kNoEdge) return false;
    Edge pe = edge_from_key(par_edge_[v]);
    VertexId p = pe.other(v);
    if (!graph_.has_edge(v, p)) return false;
    if (head_[p] != head_[v]) return false;  // Lemma 5.3 in-cluster parent
  }
  // Buckets from scratch.
  FlatHashMap<EdgeKey, std::vector<EdgeKey>> ref_buckets;
  size_t h2_edges = 0;
  graph_.for_each_edge([&](Edge e) {
    EdgeKey pk = pair_key_of(e);
    if (pk != kNoEdge) ref_buckets[pk].push_back(e.key());
    if (edge_in_h2(e)) ++h2_edges;
  });
  if (!ledger_.matches(ref_buckets)) return false;
  if (h2_->num_edges() != h2_edges) return false;
  if (!h2_->check_invariants()) return false;
  if (!next_->check_invariants()) return false;
  // Next structure's graph must equal the bucket pairs.
  if (next_->num_edges() != ledger_.size()) return false;
  // Composition S = H1 ∪ forest(H2) ∪ rep(S_next).
  FlatHashSet<EdgeKey> ref_s;
  for (VertexId v = 0; v < n_; ++v)
    if (par_edge_[v] != kNoEdge) ref_s.insert(par_edge_[v]);
  for (const Edge& e : h2_->forest_edges())
    if (!ref_s.insert(e.key())) return false;
  std::vector<EdgeKey> ns;
  for (const Edge& p : next_->spanner_edges()) ns.push_back(p.key());
  return used_rep_.check(ns, rep_of(), std::move(ref_s), s_mem_);
}

}  // namespace parspan
