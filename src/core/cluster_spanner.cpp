#include "core/cluster_spanner.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "parallel/csr.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/primitives.hpp"

namespace parspan {

DecrementalClusterSpanner::DecrementalClusterSpanner(
    size_t n, const std::vector<Edge>& edges,
    const ClusterSpannerConfig& cfg)
    : DecrementalClusterSpanner(n, FromSortedKeys{},
                                canonical_edge_keys(n, edges), cfg) {}

DecrementalClusterSpanner::DecrementalClusterSpanner(
    size_t n, FromSortedKeys, std::vector<EdgeKey> sorted_keys,
    const ClusterSpannerConfig& cfg)
    : n_(n), cfg_(cfg) {
  assert(n >= 1);
  double beta = cfg.beta > 0 ? cfg.beta
                             : std::log(10.0 * double(n)) / double(cfg.k);
  double cap = cfg.delta_cap > 0 ? cfg.delta_cap : double(cfg.k);

  // --- Las Vegas delta sampling (Algorithm 2 lines 1-3). ---
  // Every vertex draws from its own (seed, round, v) stream, so the whole
  // round is one parallel loop and the result is independent of the
  // iteration order and thread count.
  std::vector<double> delta(n);
  for (uint64_t round = 0;; ++round) {
    uint64_t round_seed = hash_combine(cfg.seed, round);
    parallel_for(0, n, [&](size_t v) {
      Rng stream(hash_combine(round_seed, v));
      delta[v] = stream.next_exponential(beta);
    });
    double mx = parallel_reduce(
        0, n, 0.0, [&](size_t v) { return delta[v]; },
        [](double a, double b) { return a < b ? b : a; });
    if (mx < cap) break;
  }
  du_.resize(n);
  std::vector<double> frac(n);
  parallel_for(0, n, [&](size_t v) {
    du_[v] = static_cast<uint32_t>(delta[v]);
    frac[v] = delta[v] - double(du_[v]);
  });
  uint32_t maxd = parallel_reduce(
      0, n, 0u, [&](size_t v) { return du_[v]; },
      [](uint32_t a, uint32_t b) { return a < b ? b : a; });
  t_ = maxd + 1;

  // --- Priority permutation: rank of the fractional part (1..n). ---
  // Sort packed (frac, id) keys: the fraction quantized to 32 bits in the
  // high word, the vertex id in the low word as the tie-break. One flat
  // 64-bit sort instead of a comparator chasing a separate double array.
  std::vector<uint64_t> pkeys(n);
  parallel_for(0, n, [&](size_t v) {
    uint64_t f = static_cast<uint64_t>(frac[v] * 0x1.0p32);
    if (f > 0xffffffffULL) f = 0xffffffffULL;
    pkeys[v] = (f << 32) | v;
  });
  parallel_sort(pkeys);
  priority_.resize(n);
  parallel_for(0, n, [&](size_t r) {
    priority_[static_cast<VertexId>(pkeys[r] & 0xffffffffULL)] =
        uint32_t(r + 1);
  });

  // --- Build the arc table from the pre-canonicalized keys. ---
  // Keys arrive sorted ascending and unique (delegating ctor or the caller's
  // merge-as-sort); the index build is a lock-free parallel fill with no
  // hash-node allocation per edge.
  const std::vector<EdgeKey>& keys = sorted_keys;
  assert(std::is_sorted(keys.begin(), keys.end()));
  assert(std::adjacent_find(keys.begin(), keys.end()) == keys.end());
  assert(keys.empty() || keys.back() != kNoEdge);
  edges_.resize(keys.size());
  edge_index_.rebuild(keys.size());
  parallel_for(0, keys.size(), [&](size_t i) {
    edges_[i] = edge_from_key(keys[i]);
    edge_index_.insert(keys[i], i);
  });
  alive_.assign(edges_.size(), 1);
  alive_count_ = edges_.size();

  // --- Precompute the cluster fixpoint level by level. ---
  // dist'(v) in G' is min(t - d_v, min_w dist'(w) + 1); the cluster of v is
  // the candidate maximizing (Priority(cluster), arc_id) among the arcs that
  // realize dist'(v). Head-start arc ids come after the 2|E| edge arcs.
  size_t num_vp = n + t_;  // V plus path vertices p_0..p_{t-1}
  VertexId path0 = VertexId(n);
  auto path_vertex = [&](uint32_t j) { return VertexId(n + j); };
  uint32_t num_edge_arcs = uint32_t(2 * edges_.size());
  // head-start arc id for v: num_edge_arcs + (t_-1) path arcs + v
  auto headstart_arc = [&](VertexId v) {
    return num_edge_arcs + (t_ - 1) + v;
  };

  // Flat CSR adjacency (arc ids 2i / 2i+1 match the ES arc table below);
  // reused further down to bulk-build the InterCluster groups.
  CsrGraph adj = csr_build(n, edges_);

  std::vector<uint32_t> distp(n, UINT32_MAX);
  cluster_.assign(n, kNoVertex);
  {
    std::vector<uint64_t> bestkey(n, 0);
    std::vector<std::vector<VertexId>> frontier_at(t_ + 2);
    for (VertexId v = 0; v < n; ++v)
      frontier_at[t_ - du_[v]].push_back(v);  // head-start arrivals
    std::vector<VertexId> frontier;
    for (uint32_t l = 1; l <= t_; ++l) {
      // Candidates arriving via head-start arcs.
      std::vector<VertexId> newly;
      for (VertexId v : frontier_at[l]) {
        if (distp[v] == UINT32_MAX) {
          distp[v] = l;
          newly.push_back(v);
          cluster_[v] = v;
          bestkey[v] = arc_key(headstart_arc(v), v);
        } else if (distp[v] == l) {
          // Settled at l via an edge this same level: head-start competes.
          uint64_t hk = arc_key(headstart_arc(v), v);
          if (hk > bestkey[v]) {
            bestkey[v] = hk;
            cluster_[v] = v;
          }
        }
      }
      // Candidates arriving via edges from the (l-1)-frontier.
      for (VertexId w : frontier) {
        auto nbrs = adj.neighbors(w);
        auto arc_ids = adj.arcs(w);
        for (size_t j = 0; j < nbrs.size(); ++j) {
          VertexId x = nbrs[j];
          uint32_t arc_id = arc_ids[j];
          if (distp[x] == UINT32_MAX) {
            distp[x] = l;
            newly.push_back(x);
            cluster_[x] = cluster_[w];
            bestkey[x] = arc_key(arc_id, cluster_[w]);
          } else if (distp[x] == l) {
            uint64_t kk = arc_key(arc_id, cluster_[w]);
            if (kk > bestkey[x]) {
              bestkey[x] = kk;
              cluster_[x] = cluster_[w];
            }
          }
        }
      }
      frontier = std::move(newly);
    }
  }

  // --- Build the ES tree over G'. ---
  // Arc counts are known up front, so the table is sized once and filled
  // with parallel loops.
  size_t total_arcs = size_t(num_edge_arcs) + (t_ - 1) + n;
  std::vector<std::pair<VertexId, VertexId>> arcs(total_arcs);
  std::vector<uint64_t> arc_keys(total_arcs);
  parallel_for(0, edges_.size(), [&](size_t i) {
    const Edge& e = edges_[i];
    arcs[2 * i] = {e.u, e.v};  // arc 2i: key uses Cluster(u)
    arc_keys[2 * i] = arc_key(uint32_t(2 * i), cluster_[e.u]);
    arcs[2 * i + 1] = {e.v, e.u};  // arc 2i+1: key uses Cluster(v)
    arc_keys[2 * i + 1] = arc_key(uint32_t(2 * i + 1), cluster_[e.v]);
  });
  for (uint32_t j = 0; j + 1 < t_; ++j) {
    arcs[num_edge_arcs + j] = {path_vertex(j), path_vertex(j + 1)};
    arc_keys[num_edge_arcs + j] = num_edge_arcs + j;  // priority irrelevant
  }
  parallel_for(0, n, [&](size_t v) {
    uint32_t a = headstart_arc(VertexId(v));
    arcs[a] = {path_vertex(t_ - 1 - du_[v]), VertexId(v)};
    arc_keys[a] = arc_key(a, VertexId(v));
  });
  (void)path0;
  es_.init(num_vp, arcs, arc_keys, path0, t_);

  // The ES parent choice must reproduce the precomputed clusters.
#ifndef NDEBUG
  for (VertexId v = 0; v < n; ++v) {
    assert(es_.dist(v) == distp[v]);
    assert(cluster_from_parent(v) == cluster_[v]);
  }
#endif

  // --- Initial contributions. ---
  tree_contrib_.assign(n, kNoEdge);
  contrib_.reserve(2 * n);
  for (VertexId v = 0; v < n; ++v) {
    OpEffects fx;
    refresh_tree_contrib(v, fx);
    replay(fx);
  }
  groups_.assign(cfg_.intercluster ? n : 0, {});
  if (cfg_.intercluster) {
    // Bulk build: group each vertex's CSR slice by neighbor cluster, then
    // fill every group with its exact size known — no incremental rehashing
    // and no per-member node allocation.
    std::vector<std::pair<VertexId, VertexId>> scratch;  // (cluster, other)
    for (VertexId x = 0; x < n; ++x) {
      auto nbrs = adj.neighbors(x);
      if (nbrs.empty()) continue;
      scratch.clear();
      for (VertexId o : nbrs) scratch.push_back({cluster_[o], o});
      std::sort(scratch.begin(), scratch.end());
      size_t ngroups = 0;
      for (size_t j = 0; j < scratch.size(); ++j)
        if (j == 0 || scratch[j].first != scratch[j - 1].first) ++ngroups;
      groups_[x].reserve(ngroups);
      size_t j = 0;
      while (j < scratch.size()) {
        VertexId c = scratch[j].first;
        size_t k = j;
        while (k < scratch.size() && scratch[k].first == c) ++k;
        Group& g = groups_[x][c];
        g.members.reserve(k - j);
        for (size_t idx = j; idx < k; ++idx)
          g.members.push_back(scratch[idx].second);
        g.rep = scratch[j].second;
        if (c != cluster_[x]) contrib_.add(edge_key(x, g.rep));
        j = k;
      }
    }
  }
  // Init contributions are not a "diff".
  contrib_.discard_delta();

  dirty_epoch_.assign(n, 0);
  distch_epoch_.assign(n, 0);
}

VertexId DecrementalClusterSpanner::cluster_from_parent(VertexId v) const {
  int32_t pa = es_.parent_arc(v);
  assert(pa != ESTree::kNoArc && "original vertices always stay in the tree");
  VertexId src = es_.arc(pa).src;
  return src >= n_ ? v : cluster_[src];
}

void DecrementalClusterSpanner::replay(const OpEffects& fx) {
  for (uint8_t i = 0; i < fx.count; ++i) {
    if (fx.removals >> i & 1u)
      contrib_.remove(fx.keys[i]);
    else
      contrib_.add(fx.keys[i]);
  }
}

void DecrementalClusterSpanner::refresh_tree_contrib(VertexId v,
                                                     OpEffects& fx) {
  EdgeKey cur = kNoEdge;
  int32_t pa = es_.parent_arc(v);
  if (pa != ESTree::kNoArc) {
    const auto& arc = es_.arc(pa);
    if (arc.src < n_) cur = edge_key(arc.src, v);
  }
  if (cur == tree_contrib_[v]) return;
  if (tree_contrib_[v] != kNoEdge) fx.remove(tree_contrib_[v]);
  if (cur != kNoEdge) fx.add(cur);
  tree_contrib_[v] = cur;
}

void DecrementalClusterSpanner::add_membership(VertexId x, VertexId c,
                                               VertexId other, OpEffects& fx) {
  Group* g = groups_[x].find(c);
  if (g == nullptr) {
    Group& ng = groups_[x][c];
    ng.members.push_back(other);
    ng.rep = other;
    if (c != cluster_[x]) fx.add(edge_key(x, other));
  } else {
    assert(!g->contains(other));
    g->members.push_back(other);
  }
}

void DecrementalClusterSpanner::remove_membership(VertexId x, VertexId c,
                                                  VertexId other,
                                                  OpEffects& fx) {
  Group* g = groups_[x].find(c);
  assert(g != nullptr);
  if (g->erase_member(other)) {
    VertexId rep = g->rep;
    if (c != cluster_[x]) fx.remove(edge_key(x, rep));
    groups_[x].erase(c);
  } else if (g->rep == other) {
    VertexId nr = g->members.front();
    if (c != cluster_[x]) {
      fx.remove(edge_key(x, other));
      fx.add(edge_key(x, nr));
    }
    g->rep = nr;
  }
}

void DecrementalClusterSpanner::flag_dirty(VertexId v, Buckets& buckets) {
  if (dirty_epoch_[v] == epoch_) return;
  dirty_epoch_[v] = epoch_;
  buckets[es_.dist(v)].push_back(v);
}

void DecrementalClusterSpanner::change_own_cluster(VertexId v, VertexId oldc,
                                                   VertexId newc,
                                                   OpEffects& fx) {
  assert(cluster_[v] == oldc && newc != oldc);
  if (cfg_.intercluster) {
    // Eligibility flips for v's own groups: (v, oldc) becomes eligible,
    // (v, newc) becomes ineligible.
    auto& m = groups_[v];
    if (Group* go = m.find(oldc)) fx.add(edge_key(v, go->rep));
    if (Group* gn = m.find(newc)) fx.remove(edge_key(v, gn->rep));
  }
  cluster_[v] = newc;
}

void DecrementalClusterSpanner::move_out_arc(uint32_t a, VertexId v,
                                             VertexId oldc, VertexId newc,
                                             OpEffects& fx) {
  // The In(w) priority of (v -> w) is Priority(Cluster(v)). A destination
  // at the next level is flagged for re-examination; the membership of the
  // edge moves between w's groups.
  VertexId w = es_.arc(a).dst;
  es_.update_arc_priority(a, arc_key(a, newc));
  if (es_.dist(w) == es_.dist(v) + 1) fx.dirty = w;
  if (cfg_.intercluster) {
    remove_membership(w, oldc, v, fx);
    add_membership(w, newc, v, fx);
  }
}

namespace {

uint64_t owner_key(VertexId owner, size_t seq) {
  assert(seq <= UINT32_MAX);
  return (static_cast<uint64_t>(owner) << 32) | seq;
}

/// Runs apply(owner, seq) once per key (owner << 32 | seq). Sorting the
/// keys turns each owner's operations into one run in sequence order; runs
/// are applied in parallel, so apply may touch only its owner's state.
template <typename Apply>
void apply_by_owner(std::vector<uint64_t>& keys, const Apply& apply) {
  parallel_sort(keys);
  parallel_for(0, keys.size(), [&](size_t i) {
    VertexId owner = VertexId(keys[i] >> 32);
    if (i > 0 && VertexId(keys[i - 1] >> 32) == owner) return;  // mid-run
    for (size_t j = i; j < keys.size() && VertexId(keys[j] >> 32) == owner;
         ++j)
      apply(owner, uint32_t(keys[j]));
  });
}

}  // namespace

SpannerDiff DecrementalClusterSpanner::delete_edges(std::span<const Edge> batch) {
  ++epoch_;
  assert(contrib_.delta_empty() && "previous batch drained its delta");

  // Everything batch-scoped below (doomed arc ids, dirty buckets, per-level
  // operation logs) comes from the calling thread's bump arena and is
  // reclaimed wholesale when this scope closes — steady state does zero
  // system allocations per batch (DESIGN.md §12.5).
  ArenaScope batch_scratch;

  // --- Step 1: kill edges; detach their InterCluster memberships using the
  // pre-batch cluster values. ---
  // Index lookups run in parallel; the kill pass is serial so that the first
  // occurrence of an in-batch duplicate is the one that counts.
  constexpr uint32_t kDead = UINT32_MAX;
  ArenaVector<uint32_t> found(batch.size());
  parallel_for(0, batch.size(), [&](size_t b) {
    auto idx = edge_index_.find(batch[b].key());
    found[b] = idx && alive_[*idx] ? uint32_t(*idx) : kDead;
  });
  ArenaVector<uint32_t> arc_ids;
  ArenaVector<uint32_t> killed;
  for (uint32_t i : found) {
    if (i == kDead || !alive_[i]) continue;
    alive_[i] = 0;
    --alive_count_;
    arc_ids.push_back(2 * i);
    arc_ids.push_back(2 * i + 1);
    killed.push_back(i);
  }
  if (cfg_.intercluster) {
    // Detach 2j removes v from u's groups and 2j+1 removes u from v's, for
    // killed[j] = (u, v): the serial loop's order, applied per owner.
    owner_keys_.resize(2 * killed.size());
    parallel_for(0, killed.size(), [&](size_t j) {
      const Edge& e = edges_[killed[j]];
      owner_keys_[2 * j] = owner_key(e.u, 2 * j);
      owner_keys_[2 * j + 1] = owner_key(e.v, 2 * j + 1);
    });
    ArenaVector<OpEffects> fx(owner_keys_.size());
    apply_by_owner(owner_keys_, [&](VertexId x, uint32_t seq) {
      const Edge& e = edges_[killed[seq / 2]];
      VertexId other = seq % 2 == 0 ? e.v : e.u;
      remove_membership(x, cluster_[other], other, fx[seq]);
    });
    for (const OpEffects& f : fx) replay(f);
  }

  // --- Step 2: distance phases (Algorithm 1). ---
  auto rep = es_.delete_arcs(arc_ids);
  last_phases_ = rep.phases;

  // --- Step 3: cluster cascade in level order. ---
  // The ES repair report is applied batch-style: distance stamps are a
  // parallel loop, the dirty buckets are then seeded serially so their fill
  // order (and thus every downstream tie-break) is thread-count independent.
  parallel_for(
      0, rep.dist_changed.size(),
      [&](size_t i) {
        VertexId v = rep.dist_changed[i];
        if (v < n_) distch_epoch_[v] = epoch_;
      });
  Buckets buckets(t_ + 2);
  for (auto& [v, old_arc] : rep.parent_changed)
    if (v < n_) flag_dirty(v, buckets);

  // Each level runs in two phases (DESIGN.md §6.3). Phase A re-selects
  // parents in parallel: rescan touches only v-local ES state (scan
  // pointer, parent arc) and reads distances/keys that are final for level
  // d-1, so bucket members are independent. Arc re-keys issued by same-level
  // peers in the serial version never affect a level-d parent choice (their
  // sources sit at level d, not d-1), which is what makes the phase split
  // result-identical to the old interleaved loop. The same pass refreshes
  // v's tree contribution and reads its new cluster off the final level d-1.
  //
  // Phase B applies the cluster changes. In bucket order, a changed member
  // v issues its own change (sequence number s) and then one operation per
  // valid out-arc (s+1, s+2, ...); each operation touches only the state of
  // one owner (v, resp. the arc's destination w: groups_, cluster_, In(w)).
  // Grouping by owner in sequence order hands every owner exactly the
  // operation order of the serial loop — in particular each membership
  // check against cluster_[w] sees the value the serial loop saw — so
  // owners run in parallel, and the shared side effects (contribution
  // refcounts, dirty flags for level d+1) are replayed serially in sequence
  // order, which keeps the diff and every representative election exact.
  for (uint32_t d = 1; d <= t_; ++d) {
    ArenaVector<VertexId>& bucket = buckets[d];
    // Cluster changes at level d only flag level d+1 (dist(w) == d+1), so
    // `bucket` is complete before the level starts.
    size_t nb = bucket.size();
    ArenaVector<OpEffects> own(nb);
    ArenaVector<VertexId> oldc(nb), newc(nb);
    ArenaVector<uint32_t> first_op(nb + 1);  // counts, then sequence offsets
    parallel_for(
        0, nb,
        [&](size_t idx) {
          VertexId v = bucket[idx];
          assert(es_.dist(v) == d);
          if (distch_epoch_[v] == epoch_)
            es_.rescan_from_head(v);
          else
            es_.rescan(v);
          refresh_tree_contrib(v, own[idx]);
          oldc[idx] = cluster_[v];
          newc[idx] = cluster_from_parent(v);
          uint32_t ops = 0;
          if (newc[idx] != oldc[idx]) {
            ops = 1;
            es_.for_each_out_arc(
                v, [&](uint32_t, const ESTree::Arc&) { ++ops; });
          }
          first_op[idx] = ops;
        },
        /*grain=*/1);
    uint32_t num_ops = 0;
    for (size_t idx = 0; idx < nb; ++idx) {
      uint32_t ops = first_op[idx];
      first_op[idx] = num_ops;
      num_ops += ops;
    }
    first_op[nb] = num_ops;

    ArenaVector<OpEffects> fx(num_ops);
    if (num_ops > 0) {
      ArenaVector<uint32_t> op_member(num_ops), op_arc(num_ops);
      owner_keys_.resize(num_ops);
      parallel_for(0, nb, [&](size_t idx) {
        uint32_t s = first_op[idx];
        if (s == first_op[idx + 1]) return;
        VertexId v = bucket[idx];
        owner_keys_[s] = owner_key(v, s);
        op_member[s] = uint32_t(idx);
        es_.for_each_out_arc(v, [&](uint32_t a, const ESTree::Arc& arc) {
          assert(arc.dst < n_ && "original vertices only point into V");
          ++s;
          owner_keys_[s] = owner_key(arc.dst, s);
          op_member[s] = uint32_t(idx);
          op_arc[s] = a;
        });
      });
      apply_by_owner(owner_keys_, [&](VertexId owner, uint32_t s) {
        uint32_t idx = op_member[s];
        if (s == first_op[idx])
          change_own_cluster(owner, oldc[idx], newc[idx], own[idx]);
        else
          move_out_arc(op_arc[s], bucket[idx], oldc[idx], newc[idx], fx[s]);
      });
    }
    for (size_t idx = 0; idx < nb; ++idx) {
      replay(own[idx]);
      if (first_op[idx] == first_op[idx + 1]) continue;
      ++cluster_change_count_;
      for (uint32_t s = first_op[idx] + 1; s < first_op[idx + 1]; ++s) {
        replay(fx[s]);
        if (fx[s].dirty != kNoVertex) flag_dirty(fx[s].dirty, buckets);
      }
    }
  }

  // --- Step 4: compile the net diff by draining the touched keys. ---
  return contrib_.drain();
}

std::vector<Edge> DecrementalClusterSpanner::spanner_edges() const {
  std::vector<Edge> out;
  out.reserve(contrib_.size());
  contrib_.for_each_key([&](EdgeKey ek) { out.push_back(edge_from_key(ek)); });
  return out;
}

bool DecrementalClusterSpanner::check_invariants() const {
  if (!es_.check_invariants()) return false;

  // Recompute the cluster fixpoint from the ES distances and compare.
  std::vector<VertexId> by_dist(n_);
  for (VertexId v = 0; v < n_; ++v) by_dist[v] = v;
  std::sort(by_dist.begin(), by_dist.end(), [&](VertexId a, VertexId b) {
    return es_.dist(a) < es_.dist(b);
  });
  std::vector<VertexId> refc(n_, kNoVertex);
  for (VertexId v : by_dist) {
    // Best candidate among valid in-arcs from the previous level.
    uint64_t best = 0;
    VertexId bc = kNoVertex;
    // Edge arcs into v.
    for (uint32_t i = 0; i < edges_.size(); ++i) {
      if (!alive_[i]) continue;
      const Edge& e = edges_[i];
      VertexId src;
      uint32_t a;
      if (e.u == v) {
        src = e.v;
        a = 2 * i + 1;
      } else if (e.v == v) {
        src = e.u;
        a = 2 * i;
      } else {
        continue;
      }
      if (es_.dist(src) + 1 != es_.dist(v)) continue;
      uint64_t kk =
          (static_cast<uint64_t>(priority_[refc[src]]) << 32) | a;
      if (kk > best) {
        best = kk;
        bc = refc[src];
      }
    }
    // Head-start arc.
    if (t_ - du_[v] == es_.dist(v)) {
      uint32_t a = uint32_t(2 * edges_.size()) + (t_ - 1) + v;
      uint64_t kk = (static_cast<uint64_t>(priority_[v]) << 32) | a;
      if (kk > best) {
        best = kk;
        bc = v;
      }
    }
    if (bc == kNoVertex) return false;  // every vertex must be clustered
    refc[v] = bc;
    if (refc[v] != cluster_[v]) return false;
  }

  // Stored arc keys must match the cluster of their source.
  for (uint32_t i = 0; i < edges_.size(); ++i) {
    if (!alive_[i]) continue;
    const Edge& e = edges_[i];
    if (es_.arc(2 * i).key != arc_key(2 * i, cluster_[e.u])) return false;
    if (es_.arc(2 * i + 1).key != arc_key(2 * i + 1, cluster_[e.v]))
      return false;
  }

  // Rebuild expected contributions.
  FlatHashMap<EdgeKey, uint32_t> expect;
  for (VertexId v = 0; v < n_; ++v) {
    int32_t pa = es_.parent_arc(v);
    if (pa == ESTree::kNoArc) return false;
    const auto& arc = es_.arc(pa);
    if (arc.src < n_) {
      if (tree_contrib_[v] != edge_key(arc.src, v)) return false;
      ++expect[edge_key(arc.src, v)];
    } else if (tree_contrib_[v] != kNoEdge) {
      return false;
    }
  }
  if (cfg_.intercluster) {
    // Rebuild memberships.
    std::vector<std::unordered_map<VertexId, std::unordered_set<VertexId>>>
        ref_groups(n_);
    for (uint32_t i = 0; i < edges_.size(); ++i) {
      if (!alive_[i]) continue;
      const Edge& e = edges_[i];
      ref_groups[e.u][cluster_[e.v]].insert(e.v);
      ref_groups[e.v][cluster_[e.u]].insert(e.u);
    }
    for (VertexId v = 0; v < n_; ++v) {
      if (ref_groups[v].size() != groups_[v].size()) return false;
      bool ok = true;
      groups_[v].for_each([&](VertexId c, const Group& g) {
        auto it = ref_groups[v].find(c);
        if (it == ref_groups[v].end() ||
            it->second.size() != g.members.size()) {
          ok = false;
          return;
        }
        for (VertexId m : it->second)
          if (!g.contains(m)) ok = false;
        if (!g.contains(g.rep)) ok = false;
        if (c != cluster_[v]) ++expect[edge_key(v, g.rep)];
      });
      if (!ok) return false;
    }
  }
  return contrib_.matches(expect);
}

}  // namespace parspan
