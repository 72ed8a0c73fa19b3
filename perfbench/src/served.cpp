// served-rw: the system path as a closed loop over loopback TCP.
//
//   writer ─┐                                   ┌─ LogShipper ─ SocketTransport ─ FollowerReplica (shard 0)
//   reader ─┼─ NetClient ─ NetServer ─ ShardedSpannerService (2 shards, WAL)
//   reader ─┘                                   └─ LogShipper ─ SocketTransport ─ FollowerReplica (shard 1)
//
// One writer connection sends submit_for then flush per batch, so every
// drained batch holds exactly one submit. Two reader connections pin a
// snapshot and issue a has_edge / neighbors / bounded_bfs mix against it,
// each a closed loop with a fixed think time between reads.
// Both leader shards log through PosixFs with FsyncPolicy::kEveryRecord
// (the default, and the only policy under which an ack means durable);
// each shard's shipper and follower are pumped by a benchmark thread of
// their own.
//
// The run is three rounds; each sets up a fresh service, server and
// followers (timed as set-up, up to the first converged follower
// snapshot), runs the closed loop for a third of --seconds, then checks
// outputs off the clock and tears everything down. Twelve more set-ups,
// with no timed phase, come first, so setup_s is a median of fifteen: one
// set-up takes about 60 ms, and single ones ranged 46-72 ms within a run.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "durability/fs.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "replication/follower.hpp"
#include "replication/log_shipper.hpp"
#include "replication/socket_transport.hpp"
#include "service/sharded_service.hpp"
#include "verify/spanner_check.hpp"

namespace perfbench {
namespace {

using namespace parspan;
namespace fs = std::filesystem;

constexpr uint32_t kShards = 2;
constexpr uint32_t kK = 3;
constexpr int kReaders = 2;
constexpr size_t kRounds = 3;
constexpr size_t kSetupOnly = 12;
constexpr uint32_t kSubmitTimeoutMs = 5000;
// Reader think time between reads. Without it the two readers saturate
// the server's one event loop, which the writer's submit and flush share,
// and the write path then measures CPU contention: batch_p90_ms moved
// 5-12 ms and update_edges_per_s 24k-42k between otherwise equal runs.
constexpr auto kReadThink = std::chrono::microseconds(200);
// A pump thread with nothing to move sleeps this long before polling again.
constexpr auto kPumpIdle = std::chrono::microseconds(100);

struct ServedSpec {
  size_t n = 0, m = 0, batch = 0;
  size_t reads_per_pin = 256;
  size_t sampled_pins = 16;   // per reader per round, checked off the clock
  size_t sample_every = 4;    // every 4th pin is sampled
  // The output is reported at this batch count, not at round end: how many
  // batches a round writes depends on host speed, and the maximum stretch
  // at round end flipped between 2 and 3 with it.
  size_t checkpoint_batch = 512;
};

ServedSpec served_spec(bool tiny) {
  // n^{1+1/k} = 2^15 is a shard's E_0 capacity. The vertex-range router
  // gives shard 0 the edges whose lower endpoint is below n/2 (3/4 of
  // them): 36k > 2^15, so shard 0 runs a decremental instance and its
  // Bentley-Saxe rebuilds; shard 1 (12k edges) stays in E_0.
  ServedSpec s{2048, 48000, 256};
  if (tiny) {
    s = ServedSpec{256, 3000, 64};
    s.reads_per_pin = 32;
    s.sampled_pins = 4;
    s.sample_every = 2;
    s.checkpoint_batch = 16;
  }
  return s;
}

uint64_t digest(const std::vector<VertexId>& ids) {
  uint64_t h = ids.size();
  for (VertexId v : ids) h = hash_combine(h, v);
  return h;
}

/// Answer digest of one query on a pinned in-process view.
uint64_t direct_answer(const ShardedView& view, const Query& q) {
  switch (q.op) {
    case 0: return view.has_edge(q.u, q.v) ? 1 : 0;
    case 1: return digest(view.neighbors(q.u));
    default: return view.distance(q.u, q.v, kReadBfsLimit);
  }
}

/// Answer digest over the wire, or nullopt on a failed request.
std::optional<uint64_t> wire_answer(net::NetClient& c, uint64_t pin,
                                    const Query& q) {
  switch (q.op) {
    case 0: {
      auto r = c.has_edge(pin, q.u, q.v);
      if (!r) return std::nullopt;
      return *r ? 1 : 0;
    }
    case 1: {
      auto r = c.neighbors(pin, q.u);
      if (!r) return std::nullopt;
      return digest(*r);
    }
    default: {
      auto r = c.bounded_bfs(pin, q.u, q.v, kReadBfsLimit);
      if (!r) return std::nullopt;
      return *r;
    }
  }
}

/// A pin whose wire reads are re-run on the in-process view at the same
/// per-shard versions after the round.
struct SampledPin {
  ShardedView view;
  std::vector<std::pair<uint32_t, uint64_t>> reads;  // (query idx, answer)
};

struct ReaderOut {
  std::vector<double> read_us;
  uint64_t attempted = 0, failed = 0;
  std::vector<SampledPin> samples;
};

void reader_loop(uint16_t port, const ShardedSpannerService& svc,
                 const std::vector<Query>& queries, const ServedSpec& sp,
                 int id, const std::atomic<bool>& stop, ReaderOut& out) {
  auto client = net::NetClient::connect("127.0.0.1", port);
  ++out.attempted;
  if (!client) {
    ++out.failed;
    return;
  }
  size_t qi = size_t(id) * 997, pins = 0;
  uint64_t req = uint64_t(id + 1) << 40;
  while (!stop.load(std::memory_order_relaxed)) {
    net::NetClient::PinResult pin;
    {
      Span s("net.pin", req);
      pin = client->pin();
    }
    ++out.attempted;
    if (pin.status != net::Status::kOk) {
      ++out.failed;
      continue;
    }
    SampledPin* sample = nullptr;
    if (pins++ % sp.sample_every == 0 && out.samples.size() < sp.sampled_pins) {
      ShardedView v = svc.view();
      if (v.versions().v == pin.pin.versions)
        sample = &out.samples.emplace_back(SampledPin{std::move(v), {}});
    }
    for (size_t r = 0; r < sp.reads_per_pin; ++r) {
      if (stop.load(std::memory_order_relaxed)) break;
      const uint32_t idx = uint32_t(qi++ % queries.size());
      std::optional<uint64_t> ans;
      const int64_t t0 = now_ns();
      {
        Span s("net.read", ++req);
        s.arg("op", queries[idx].op);
        ans = wire_answer(*client, pin.pin.id, queries[idx]);
      }
      out.read_us.push_back(double(now_ns() - t0) * 1e-3);
      ++out.attempted;
      if (!ans) {
        ++out.failed;
        continue;
      }
      if (sample != nullptr) sample->reads.push_back({idx, *ans});
      std::this_thread::sleep_for(kReadThink);
    }
    client->unpin(pin.pin.id);
  }
}

/// The leader-to-follower path of one shard.
struct Replica {
  std::shared_ptr<SocketTransport> dialed;    // follower end
  std::shared_ptr<SocketTransport> accepted;  // leader end
  std::unique_ptr<FollowerReplica> follower;
  std::unique_ptr<LogShipper> shipper;
};

/// Drives one shard's shipper and follower. Each shard gets its own pump
/// thread: the leader's shards fsync in parallel, and one thread
/// serialising both followers' per-record fsyncs falls behind until the
/// follower drops past the leader's WAL GC horizon and needs a snapshot
/// resync. The shipping watermark is the last flushed version: with
/// kEveryRecord a version is published only after its record is fsynced,
/// so a flushed version is durable, and the pump never reads the leader's
/// WAL state while the shard's drain is writing it.
class ShardPump {
 public:
  ShardPump(Replica& rep, uint32_t shard, size_t max_acks)
      : rep_(rep), shard_(shard), landed_(max_acks, 0) {}

  /// One pump of the follower and the shipper; true when a record moved.
  bool pump_once() {
    bool progress = false;
    const uint64_t applied0 = rep_.follower->applied_version();
    int64_t t0 = now_ns();
    rep_.follower->pump();
    int64_t t1 = now_ns();
    if (rep_.follower->applied_version() != applied0) {
      progress = true;
      Tracer::get().emit(
          "replication.apply", t0, t1, shard_,
          {{"records", double(rep_.follower->applied_version() - applied0)}});
    }
    rep_.accepted->poll();
    const uint64_t shipped0 =
        rep_.shipper->records_shipped() + rep_.shipper->snapshots_shipped();
    t0 = now_ns();
    rep_.shipper->pump(durable_.load(std::memory_order_acquire));
    t1 = now_ns();
    const uint64_t shipped =
        rep_.shipper->records_shipped() + rep_.shipper->snapshots_shipped();
    if (shipped != shipped0) {
      progress = true;
      Tracer::get().emit("replication.ship", t0, t1, shard_,
                         {{"records", double(shipped - shipped0)}});
    }
    return progress;
  }

  bool holds(uint64_t version) const {
    return rep_.follower->has_state() &&
           rep_.follower->applied_version() >= version;
  }

  bool broken() const {
    return rep_.dialed->peer_gone() || rep_.accepted->peer_gone();
  }

  /// Pumps on the calling thread until the follower holds `version`.
  bool pump_until(uint64_t version, double timeout_s) {
    const int64_t deadline = now_ns() + int64_t(timeout_s * 1e9);
    while (!holds(version)) {
      if (!pump_once()) std::this_thread::sleep_for(kPumpIdle);
      if (broken() || now_ns() > deadline) return false;
    }
    return true;
  }

  /// Writer thread, after flush ack number `ack` returned `version`.
  void acked(size_t ack, uint64_t version) {
    durable_.store(version, std::memory_order_release);
    std::lock_guard<std::mutex> lk(mu_);
    pending_.push_back({version, ack});
  }

  /// The pump thread: runs until `stop` is set and every acked version has
  /// reached the follower (or the wire breaks, or 10 s pass after the
  /// stop), stamping the instant each acked version lands.
  void run(const std::atomic<bool>& stop) {
    int64_t deadline = 0;
    for (;;) {
      const bool progress = pump_once();
      bool idle;
      {
        std::lock_guard<std::mutex> lk(mu_);
        while (!pending_.empty() && holds(pending_.front().first)) {
          landed_[pending_.front().second] = now_ns();
          pending_.pop_front();
        }
        idle = pending_.empty();
      }
      if (stop.load(std::memory_order_relaxed)) {
        if (deadline == 0) deadline = now_ns() + 10'000'000'000;
        if (idle || now_ns() > deadline) return;
      }
      if (broken()) return;
      if (!progress) std::this_thread::sleep_for(kPumpIdle);
    }
  }

  /// Instant ack `i`'s version reached the follower (0: never). Read after
  /// the pump thread is joined.
  int64_t landed(size_t i) const { return landed_[i]; }

 private:
  Replica& rep_;
  uint32_t shard_;
  std::atomic<uint64_t> durable_{0};
  std::mutex mu_;
  std::deque<std::pair<uint64_t, size_t>> pending_;  // (version, ack index)
  std::vector<int64_t> landed_;
};

uint64_t dir_bytes(const fs::path& p) {
  uint64_t total = 0;
  std::error_code ec;
  for (auto it = fs::recursive_directory_iterator(p, ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec))
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  return total;
}

/// What one set-up builds from the initial graph.
struct SetupConfig {
  size_t n = 0;
  const std::vector<Edge>* initial = nullptr;
  FullyDynamicSpannerConfig backend;
  std::shared_ptr<Fs> fs;
  DurabilityOptions leader, follower;
};

/// Dials one follower per shard, accepts both on the leader side, and
/// pumps until every follower holds version 0 (its first snapshot).
bool bootstrap(ReplicationListener& listener, std::vector<Replica>& reps,
               const std::shared_ptr<Fs>& posix,
               const fs::path& dir, const std::string& leader_dir,
               const DurabilityOptions& dopts) {
  if (!listener.start("127.0.0.1", 0)) return false;
  for (uint32_t sh = 0; sh < reps.size(); ++sh) {
    reps[sh].dialed = SocketTransport::connect("127.0.0.1", listener.port(), sh + 1);
    if (reps[sh].dialed == nullptr) return false;
  }
  const int64_t deadline = now_ns() + 5'000'000'000;
  size_t got = 0;
  while (got < reps.size() && now_ns() < deadline) {
    listener.poll();
    for (auto& a : listener.take_accepted()) {
      if (a.follower_id < 1 || a.follower_id > reps.size()) continue;
      Replica& r = reps[a.follower_id - 1];
      if (r.accepted == nullptr) {
        r.accepted = std::move(a.transport);
        ++got;
      }
    }
  }
  if (got < reps.size()) return false;
  for (uint32_t sh = 0; sh < reps.size(); ++sh) {
    reps[sh].follower = std::make_unique<FollowerReplica>(
        posix, (dir / ("follower-" + std::to_string(sh))).string(), dopts,
        reps[sh].dialed);
    reps[sh].shipper = std::make_unique<LogShipper>(
        posix, leader_dir + "/shard-" + std::to_string(sh), /*epoch=*/1,
        reps[sh].accepted);
  }
  for (uint32_t sh = 0; sh < reps.size(); ++sh)
    if (!ShardPump(reps[sh], sh, 0).pump_until(0, 10.0)) return false;
  return true;
}

/// The system under test: service, server, listener and followers.
struct Stack {
  std::unique_ptr<ShardedSpannerService> svc;
  std::unique_ptr<net::NetServer> server;
  ReplicationListener listener;
  std::vector<Replica> reps;
  bool up = false, wired = false;

  /// Set-up: service + WAL genesis under `dir`/leader, server start,
  /// followers bootstrapped. Returns its wall time in seconds.
  double start(const SetupConfig& c, const fs::path& dir) {
    const int64_t t0 = now_ns();
    {
      Span s("service.build");
      ShardedConfig scfg;
      scfg.durability.enabled = true;
      scfg.durability.fs = c.fs;
      scfg.durability.dir = (dir / "leader").string();
      scfg.durability.opts = c.leader;
      svc = ShardedSpannerService::single_graph(c.n, *c.initial, kShards,
                                                c.backend, scfg);
    }
    server = std::make_unique<net::NetServer>(*svc);
    {
      Span s("net.start");
      up = server->start();
    }
    reps.resize(kShards);
    {
      Span s("replication.bootstrap");
      wired = bootstrap(listener, reps, c.fs, dir, (dir / "leader").string(),
                        c.follower);
    }
    return double(now_ns() - t0) * 1e-9;
  }

  /// The set-up's own checks.
  void check(Result& res) const {
    res.check(!svc->durability_failed(), "leader WAL genesis failed");
    res.check(up, "NetServer failed to start");
    res.check(wired, "follower bootstrap did not converge");
  }

  ~Stack() {
    if (server) server->stop();
    server.reset();
    reps.clear();
    listener.stop();
    svc.reset();
  }
};

/// A fresh, empty directory for one set-up.
fs::path fresh_dir(const Options& opt, const std::string& name) {
  const fs::path dir = fs::path(opt.tmp_dir) / name;
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  return dir;
}

}  // namespace

Result run_served(const Options& opt) {
  Result res;
  Tracer& tr = Tracer::get();
  const ServedSpec sp = served_spec(opt.tiny);
  const size_t n = sp.n;
  const double round_s = opt.seconds / double(kRounds);

  // --- Inputs, all generated before any clock starts. Every round replays
  // the same batch sequence from the same initial graph. ---
  const size_t max_batches = size_t(std::ceil(3000.0 * round_s)) + 16;
  auto [initial, batches] = gen_mixed_stream(n, sp.m, sp.batch, max_batches,
                                             hash_combine(opt.seed, 2));
  const std::vector<Query> queries =
      make_queries(n, 8192, hash_combine(opt.seed, 3));
  SetupConfig cfg;
  cfg.n = n;
  cfg.initial = &initial;
  cfg.backend.k = kK;
  cfg.fs = std::make_shared<PosixFs>();
  // The leader shards: an ack means durable.
  cfg.leader.fsync_policy = FsyncPolicy::kEveryRecord;
  // Followers sync their own chain every 8 records. Their chain bounds
  // only what a promoted follower could recover; the acknowledgement a
  // client sees is the leader's. Per-record follower syncs doubled the
  // fsyncs per batch on the shared ext4 journal, whose tail (p90 1-5 ms
  // under concurrent syncs, against a 0.2 ms median) then set the batch
  // latency.
  cfg.follower = cfg.leader;
  cfg.follower.fsync_policy = FsyncPolicy::kEveryN;
  cfg.follower.fsync_every_n = 8;

  std::vector<double> setup_s, batch_ms, read_us, lag_ms;
  double phase_s = 0, phase_cpu_s = 0, acked_edges = 0, reads = 0;
  std::vector<double> round_rate;  // acked edges/s per round
  std::vector<double> out_per_vertex;
  uint32_t stretch_max = 0;
  std::error_code ec;

  for (size_t j = 0; j < kSetupOnly; ++j) {
    const fs::path dir = fresh_dir(opt, "setup-" + std::to_string(j));
    cfg.backend.seed = hash_combine(opt.seed, 2000 + j);
    {
      Stack st;
      setup_s.push_back(st.start(cfg, dir));
      st.check(res);
    }
    fs::remove_all(dir, ec);
  }

  for (size_t round = 0; round < kRounds; ++round) {
    // Traced runs trace the middle round only, with round 0's seed; round
    // 0 is the untraced reference for the tracing overhead.
    const bool traced = opt.trace && round == 1;
    tr.set_enabled(traced);
    Span round_span("bench.round", round);
    const fs::path dir = fresh_dir(opt, "round-" + std::to_string(round));
    const std::string leader_dir = (dir / "leader").string();
    // Each round draws its own backend seed (see churn.cpp).
    cfg.backend.seed = hash_combine(opt.seed, 1000 + (traced ? 0 : round));

    auto stack = std::make_unique<Stack>();
    setup_s.push_back(stack->start(cfg, dir));
    stack->check(res);
    if (!stack->up || !stack->wired) break;
    ShardedSpannerService* svc = stack->svc.get();
    net::NetServer* server = stack->server.get();
    std::vector<Replica>& reps = stack->reps;
    std::vector<uint64_t> boot_resyncs;
    for (const Replica& r : reps) boot_resyncs.push_back(r.follower->snapshot_resyncs());

    auto writer = net::NetClient::connect("127.0.0.1", server->port());
    res.check(writer.has_value(), "writer connect failed");
    if (!writer) break;

    // --- Timed closed loop. ---
    std::atomic<bool> stop_readers{false}, stop_pumps{false};
    std::vector<ReaderOut> rout(kReaders);
    std::vector<std::unique_ptr<ShardPump>> pumps;
    std::vector<std::thread> pump_threads;
    for (uint32_t sh = 0; sh < kShards; ++sh) {
      pumps.push_back(std::make_unique<ShardPump>(reps[sh], sh, batches.size()));
      pump_threads.emplace_back(&ShardPump::run, pumps.back().get(),
                                std::cref(stop_pumps));
    }
    std::vector<std::thread> readers;
    for (int r = 0; r < kReaders; ++r)
      readers.emplace_back(reader_loop, server->port(), std::cref(*svc),
                           std::cref(queries), std::cref(sp), r,
                           std::cref(stop_readers), std::ref(rout[r]));
    const int64_t c0 = cpu_ns(), p0 = now_ns();
    const int64_t end = p0 + int64_t(round_s * 1e9);
    size_t written = 0;
    double round_edges = 0;
    std::vector<uint64_t> last_vv(kShards, 0), checkpoint_vv;
    std::optional<ShardedView> checkpoint;
    std::vector<double> r_batch;
    std::vector<int64_t> t_ack;
    while (now_ns() < end && written < batches.size()) {
      const UpdateBatch& b = batches[written];
      Span bs("served.batch", written);
      const int64_t t0 = now_ns();
      net::NetClient::SubmitResult sr;
      {
        Span s("net.submit_for", written);
        sr = writer->submit_for(0, b.insertions, b.deletions, kSubmitTimeoutMs);
      }
      std::optional<std::vector<uint64_t>> vv;
      {
        Span s("net.flush", written);
        vv = writer->flush();
      }
      const int64_t t2 = now_ns();
      ++written;
      const bool ok = sr.status == net::Status::kOk && vv.has_value() &&
                      vv->size() == kShards;
      res.check(ok, "batch " + std::to_string(written - 1) + " not acknowledged");
      if (!ok) continue;
      for (uint32_t sh = 0; sh < kShards; ++sh) pumps[sh]->acked(t_ack.size(), (*vv)[sh]);
      t_ack.push_back(t2);
      last_vv = *vv;
      if (written == sp.checkpoint_batch) {
        checkpoint = svc->view();
        checkpoint_vv = *vv;
      }
      r_batch.push_back(double(t2 - t0) * 1e-6);
      round_edges += double(b.insertions.size() + b.deletions.size());
    }
    const double dt = double(now_ns() - p0) * 1e-9;
    const double dcpu = double(cpu_ns() - c0) * 1e-9;
    stop_readers = true;
    for (std::thread& t : readers) t.join();
    stop_pumps = true;
    for (std::thread& t : pump_threads) t.join();
    round_rate.push_back(round_edges / dt);

    size_t round_reads = 0;
    for (ReaderOut& ro : rout) {
      round_reads += ro.read_us.size();
      res.attempted += ro.attempted;
      res.failed += ro.failed;
      if (!traced) read_us.insert(read_us.end(), ro.read_us.begin(), ro.read_us.end());
    }
    // An ack's replica lag: until its versions landed on every follower.
    std::vector<double> lags;
    for (size_t i = 0; i < t_ack.size(); ++i) {
      int64_t last = 0;
      bool all = true;
      for (const auto& p : pumps) {
        all = all && p->landed(i) != 0;
        last = std::max(last, p->landed(i));
      }
      if (all) lags.push_back(double(last - t_ack[i]) * 1e-6);
    }
    if (!traced) {
      phase_s += dt;
      phase_cpu_s += dcpu;
      acked_edges += round_edges;
      reads += double(round_reads);
      batch_ms.insert(batch_ms.end(), r_batch.begin(), r_batch.end());
      lag_ms.insert(lag_ms.end(), lags.begin(), lags.end());
    }

    // --- Off-clock checks. ---
    Span vs("verify.round_end");
    for (uint32_t sh = 0; sh < kShards; ++sh) {
      res.check(pumps[sh]->pump_until(last_vv[sh], 10.0),
                "follower did not catch up");
      const FollowerReplica& f = *reps[sh].follower;
      auto snap = svc->shard_service(sh).snapshot();
      res.check(f.applied_version() == snap->version() &&
                    f.applied_checksum() == snap->checksum(),
                "shard " + std::to_string(sh) +
                    ": follower checksum differs from the leader's");
      res.check(f.rejects() == 0, "follower rejected frames");
      res.check(f.snapshot_resyncs() == boot_resyncs[sh],
                "follower resynced after bootstrap");
    }
    // Sampled wire reads against the in-process view at the same versions.
    // A pin is sampled only when the view taken right after it has the
    // pin's versions, so the round must show that some did.
    size_t compared = 0;
    for (ReaderOut& ro : rout) {
      for (const SampledPin& sp_pin : ro.samples) {
        for (const auto& [idx, wire] : sp_pin.reads) {
          uint64_t direct;
          {
            Span s("service.query", idx);
            direct = direct_answer(sp_pin.view, queries[idx]);
          }
          res.check(direct == wire, "wire read differs from the pinned view");
          ++compared;
        }
      }
      ro.samples.clear();
    }
    res.check(compared > 0, "no wire read was compared with a pinned view");
    const net::NetServer::Stats st = server->stats();
    res.check(st.protocol_errors == 0, "server counted protocol errors");

    // The composed spanner after `count` batches: a subset of the graph,
    // with stretch at most 2k-1 over every graph edge outside it (at this
    // density the spanner keeps most edges, and a sample's maximum flipped
    // between 2 and 3 from seed to seed). Returns the capped stretch.
    const auto check_output = [&](const std::vector<Edge>& out, size_t count) {
      const std::vector<Edge> g = graph_after(initial, batches, count);
      res.check(output_within(g, out),
                "composed spanner holds an edge that is not in the graph");
      const std::vector<Edge> outside = edges_outside(g, out, 0, 0);
      const uint32_t bound = 2 * kK - 1;
      const uint32_t stretch =
          outside.empty() ? 1 : max_edge_stretch(n, outside, out, bound);
      res.check(stretch <= bound, "composed spanner stretch exceeds 2k-1");
      return std::min(stretch, bound + 1);
    };
    check_output(svc->view().edges(), written);
    res.check(checkpoint.has_value() && checkpoint->versions().v == checkpoint_vv,
              "no view pinned at batch " + std::to_string(sp.checkpoint_batch));
    if (checkpoint) {
      const std::vector<Edge> out = checkpoint->edges();
      out_per_vertex.push_back(double(out.size()) / double(n));
      stretch_max = std::max(stretch_max, check_output(out, sp.checkpoint_batch));
    }
    if (traced) {
      uint64_t logged = 0, shipped = 0, dups = 0, rej = 0, resync = 0;
      for (uint32_t sh = 0; sh < kShards; ++sh) {
        logged += svc->shard_service(sh).durability()->records_logged();
        const Replica& r = reps[sh];
        shipped += r.shipper->records_shipped();
        dups += r.follower->duplicates_dropped();
        rej += r.follower->rejects();
        resync += r.follower->snapshot_resyncs() - boot_resyncs[sh];
      }
      tr.counter("service", {{"edges_timed_out", double(svc->edges_timed_out())}});
      tr.counter("net", {{"retry_afters", double(st.retry_afters)},
                         {"protocol_errors", double(st.protocol_errors)}});
      tr.counter("durability", {{"records_logged", double(logged)},
                                {"wal_bytes", double(dir_bytes(leader_dir))},
                                {"acked_edges", round_edges}});
      tr.counter("replication", {{"records_shipped", double(shipped)},
                                 {"snapshot_resyncs", double(resync)},
                                 {"duplicates_dropped", double(dups)},
                                 {"rejects", double(rej)}});
    }

    // --- Teardown (every thread this round started is already joined). ---
    writer.reset();
    stack.reset();
    fs::remove_all(dir, ec);
  }
  tr.set_enabled(false);

  res.set("setup_s", median(setup_s), "s");
  res.set("update_edges_per_s", acked_edges / phase_s, "edges/s");
  res.set("batch_p50_ms", percentile(batch_ms, 0.5), "ms");
  res.set("batch_p90_ms", percentile(batch_ms, 0.9), "ms");
  res.set("cpu_us_per_edge", phase_cpu_s * 1e6 / acked_edges, "us");
  res.set("reads_per_s", reads / phase_s, "1/s");
  res.set("read_p50_us", percentile(read_us, 0.5), "us");
  res.set("read_p99_us", percentile(read_us, 0.99), "us");
  res.set("replica_lag_p50_ms", percentile(lag_ms, 0.5), "ms");
  res.set("ok_ops_ratio",
          double(res.attempted - res.failed) / double(res.attempted), "ratio");
  double epv = 0;
  for (double x : out_per_vertex) epv += x;
  res.set("edges_per_vertex", epv / double(std::max<size_t>(1, out_per_vertex.size())),
          "edges/vertex");
  res.set("stretch_max", stretch_max, "hops");
  if (opt.trace && round_rate.size() >= 2)
    tr.meta("trace.overhead_pct", (round_rate[0] / round_rate[1] - 1.0) * 100);
  res.set("peak_rss_mb", peak_rss_mb(), "MB");
  return res;
}

}  // namespace perfbench
