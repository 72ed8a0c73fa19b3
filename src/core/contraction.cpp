#include "core/contraction.hpp"

#include <algorithm>
#include <cassert>

#include "parallel/primitives.hpp"
#include "util/rng.hpp"

namespace parspan {

ContractionLayer::ContractionLayer(size_t n, const std::vector<Edge>& edges,
                                   double x, uint64_t seed)
    : n_(n), x_(std::max(2.0, x)), seed_(seed) {
  // Fixed sample D: each vertex with probability 1/x; at least one vertex
  // is forced into D so the contracted graph is never empty (the paper's
  // "V' is not empty w.h.p."; the forcing only matters for tiny n).
  next_id_.assign(n, kNoVertex);
  Rng rng(hash_combine(seed, 0xd));
  for (VertexId v = 0; v < n; ++v) {
    if (rng.next_bool(1.0 / x_)) {
      next_id_[v] = VertexId(prev_id_.size());
      prev_id_.push_back(v);
    }
  }
  if (prev_id_.empty() && n > 0) {
    VertexId v = VertexId(rng.next_below(n));
    next_id_[v] = 0;
    prev_id_.push_back(v);
  }
  next_n_ = prev_id_.size();

  adj_.assign(n, {});
  head_.assign(n, kNoVertex);
  head_edge_.assign(n, kNoEdge);

  // Insert edges, then compute heads, then attach contributions: init is
  // just an update() on an empty structure, but done in bulk.
  edge_index_.reserve(edges.size());
  for (const Edge& e : edges) {
    if (e.u == e.v || e.u >= n || e.v >= n) continue;
    if (edge_index_.contains(e.key())) continue;
    edge_index_[e.key()] = uint32_t(edges_.size());
    EdgeRec rec;
    rec.e = e;
    rec.alive = true;
    rec.key_u = fresh_entry_key(e.v);
    rec.key_v = fresh_entry_key(e.u);
    adj_[e.u].insert(rec.key_u, {e.v, uint32_t(edges_.size())});
    adj_[e.v].insert(rec.key_v, {e.u, uint32_t(edges_.size())});
    edges_.push_back(rec);
    ++alive_count_;
  }
  for (VertexId v = 0; v < n; ++v) head_[v] = compute_head(v);
  for (uint32_t eid = 0; eid < edges_.size(); ++eid) attach(eid);
  // head-edge contributions.
  for (VertexId v = 0; v < n; ++v) {
    if (is_sampled(v) || head_[v] == kNoVertex) continue;
    head_edge_[v] = edge_key(v, head_[v]);
    h_.add(head_edge_[v]);
  }
  h_.discard_delta();
  ledger_.forget_touched();
}

uint64_t ContractionLayer::fresh_entry_key(VertexId other) {
  // Composite (unmark, rand) key: unmarked (other ∉ D) entries sort after
  // all marked ones; the low bits keep keys distinct.
  uint64_t unmark = is_sampled(other) ? 0 : 1;
  uint64_t rnd = hash_combine(seed_, ++entry_counter_) >> 2;
  return (unmark << 62) | rnd;
}

VertexId ContractionLayer::compute_head(VertexId v) {
  if (is_sampled(v)) return v;
  auto& t = adj_[v];
  if (t.empty()) return kNoVertex;
  // Minimum (unmark, rand) entry = last in descending order.
  auto [key, entry] = t.select_desc(t.size());
  if (key >> 62) return kNoVertex;  // min entry unmarked: no D neighbor
  return entry->other;
}

EdgeKey ContractionLayer::pair_key_of(uint32_t eid) const {
  const EdgeRec& r = edges_[eid];
  VertexId hu = head_[r.e.u], hv = head_[r.e.v];
  if (hu == kNoVertex || hv == kNoVertex || hu == hv) return kNoEdge;
  return edge_key(next_id_[hu], next_id_[hv]);
}

bool ContractionLayer::edge_in_bot(uint32_t eid) const {
  const EdgeRec& r = edges_[eid];
  return head_[r.e.u] == kNoVertex || head_[r.e.v] == kNoVertex;
}

void ContractionLayer::attach(uint32_t eid) {
  if (edge_in_bot(eid)) h_.add(edges_[eid].e.key());
  ledger_.add(pair_key_of(eid), eid);
}

void ContractionLayer::detach(uint32_t eid) {
  if (edge_in_bot(eid)) h_.remove(edges_[eid].e.key());
  ledger_.remove(pair_key_of(eid), eid);
}

void ContractionLayer::recheck_head(VertexId v) {
  if (is_sampled(v)) return;
  VertexId h = compute_head(v);
  if (h == head_[v]) {
    // Head unchanged, but the head-edge contribution may have been dropped
    // if the head edge was deleted and re-inserted within this batch.
    EdgeKey want = h == kNoVertex ? kNoEdge : edge_key(v, h);
    if (head_edge_[v] != want) {
      if (head_edge_[v] != kNoEdge) h_.remove(head_edge_[v]);
      head_edge_[v] = want;
      if (want != kNoEdge) h_.add(want);
    }
    return;
  }
  // Move every incident edge: bot membership and bucket key both depend on
  // Head(v). Remove under the old head, flip, re-add under the new head.
  std::vector<uint32_t> incident;
  adj_[v].for_each(
      [&](uint64_t, const AdjEntry& a) { incident.push_back(a.edge_id); });
  for (uint32_t eid : incident) detach(eid);
  if (head_edge_[v] != kNoEdge) {
    h_.remove(head_edge_[v]);
    head_edge_[v] = kNoEdge;
  }
  head_[v] = h;
  for (uint32_t eid : incident) attach(eid);
  if (h != kNoVertex) {
    head_edge_[v] = edge_key(v, h);
    h_.add(head_edge_[v]);
  }
}

ContractionLayer::UpdateResult ContractionLayer::update(
    const std::vector<Edge>& ins, const std::vector<Edge>& del) {
  assert(h_.delta_empty());
  std::vector<VertexId> recheck;
  recheck.reserve(2 * (ins.size() + del.size()));

  // --- Deletions. ---
  for (const Edge& e : del) {
    const uint32_t* it = edge_index_.find(e.key());
    if (it == nullptr || !edges_[*it].alive) continue;
    uint32_t eid = *it;
    EdgeRec& r = edges_[eid];
    detach(eid);
    adj_[r.e.u].erase(r.key_u);
    adj_[r.e.v].erase(r.key_v);
    r.alive = false;
    --alive_count_;
    // The deleted edge may carry a head-edge contribution of an endpoint;
    // that endpoint's head necessarily changes (its min entry vanished), so
    // recheck_head will refresh it — but remove the stale contribution
    // first in case the new head edge coincides.
    for (VertexId w : {r.e.u, r.e.v}) {
      if (head_edge_[w] == r.e.key()) {
        h_.remove(head_edge_[w]);
        head_edge_[w] = kNoEdge;
      }
      recheck.push_back(w);
    }
  }
  // --- Insertions. ---
  for (const Edge& e : ins) {
    if (e.u == e.v || e.u >= n_ || e.v >= n_) continue;
    const uint32_t* it = edge_index_.find(e.key());
    uint32_t eid;
    if (it != nullptr) {
      if (edges_[*it].alive) continue;  // already present
      eid = *it;  // resurrect dead record with fresh entries
    } else {
      eid = uint32_t(edges_.size());
      edge_index_[e.key()] = eid;
      edges_.push_back(EdgeRec{});
      edges_[eid].e = e;
    }
    EdgeRec& r = edges_[eid];
    r.alive = true;
    ++alive_count_;
    r.key_u = fresh_entry_key(e.v);
    r.key_v = fresh_entry_key(e.u);
    adj_[e.u].insert(r.key_u, {e.v, eid});
    adj_[e.v].insert(r.key_v, {e.u, eid});
    attach(eid);
    recheck.push_back(e.u);
    recheck.push_back(e.v);
  }
  // --- Head rechecks (the D4/I4/I5 procedures), in ascending vertex order
  // so every bucket-representative election is deterministic. ---
  sort_unique(recheck);
  for (VertexId v : recheck) recheck_head(v);

  // --- Compile diffs, key-sorted (DESIGN.md §7.4). ---
  UpdateResult res;
  SpannerDiff hd = h_.drain();
  res.h_ins = std::move(hd.inserted);
  res.h_del = std::move(hd.removed);
  ledger_.drain(res.next_ins, res.next_del, res.rep_changed);
  return res;
}

std::vector<Edge> ContractionLayer::next_edges() const {
  return ledger_.pairs();
}

Edge ContractionLayer::rep(Edge pair) const {
  return edges_[ledger_.rep(pair.key())].e;
}

std::vector<Edge> ContractionLayer::h_edges() const {
  std::vector<Edge> out;
  out.reserve(h_.size());
  for (EdgeKey ek : h_.sorted_keys()) out.push_back(edge_from_key(ek));
  return out;
}

bool ContractionLayer::check_invariants() const {
  // Recompute heads.
  for (VertexId v = 0; v < n_; ++v) {
    VertexId h =
        const_cast<ContractionLayer*>(this)->compute_head(v);
    if (is_sampled(v)) h = v;
    if (h != head_[v]) return false;
  }
  // Recompute buckets and H from scratch.
  FlatHashMap<EdgeKey, std::vector<uint32_t>> ref_buckets;
  FlatHashMap<EdgeKey, uint32_t> ref_h;
  for (uint32_t eid = 0; eid < edges_.size(); ++eid) {
    if (!edges_[eid].alive) continue;
    EdgeKey pk = pair_key_of(eid);
    if (pk != kNoEdge) ref_buckets[pk].push_back(eid);
    if (edge_in_bot(eid)) ++ref_h[edges_[eid].e.key()];
  }
  for (VertexId v = 0; v < n_; ++v) {
    if (is_sampled(v) || head_[v] == kNoVertex) {
      if (head_edge_[v] != kNoEdge) return false;
      continue;
    }
    if (head_edge_[v] != edge_key(v, head_[v])) return false;
    ++ref_h[head_edge_[v]];
  }
  return ledger_.matches(ref_buckets) && h_.matches(ref_h);
}

}  // namespace parspan
