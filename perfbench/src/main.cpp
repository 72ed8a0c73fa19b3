// perfbench: runs one benchmark workload, checks its outputs, and prints
// every metric by name with its unit. run.py builds this binary and is the
// documented entry point (see NOTES.md).
//
//   perfbench --workload W --seed S --seconds T --trace 0|1
//             [--trace-out FILE] [--tmp DIR] [--commit ID] [--tiny]
//
// The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics"}. Lines before it starting with '#' describe the run
// environment. With --trace 1 the spans and counters go to --trace-out as
// Chrome trace-event JSON, and run.py derives the per-layer metrics from
// that file.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common.hpp"
#include "parallel/scheduler.hpp"

namespace perfbench {

namespace {

void json_string(std::FILE* f, const std::string& s) {
  std::fputc('"', f);
  for (char c : s) {
    if (c == '"' || c == '\\') std::fputc('\\', f);
    std::fputc(c, f);
  }
  std::fputc('"', f);
}

void json_number(std::FILE* f, double v) {
  if (!std::isfinite(v)) v = 0;
  std::fprintf(f, "%.17g", v);
}

}  // namespace

bool Tracer::write(const std::string& path,
                   const std::map<std::string, std::string>& labels) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t base = INT64_MAX;
  for (const auto& b : buffers_)
    for (const SpanRec& s : b->spans) base = std::min(base, s.t0);
  for (const CounterRec& c : counters_) base = std::min(base, c.t);
  if (base == INT64_MAX) base = 0;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
  bool first = true;
  auto sep = [&] {
    if (!first) std::fputs(",\n", f);
    first = false;
  };
  for (const auto& b : buffers_) {
    for (const SpanRec& s : b->spans) {
      sep();
      std::fprintf(f,
                   "{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"X\",\"pid\":1,"
                   "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                   "\"parent\":%llu,\"req\":%llu",
                   s.name, int(std::strcspn(s.name, ".")), s.name, s.tid,
                   double(s.t0 - base) * 1e-3, double(s.t1 - s.t0) * 1e-3,
                   (unsigned long long)s.id, (unsigned long long)s.parent,
                   (unsigned long long)s.req);
      for (uint8_t i = 0; i < s.nargs; ++i) {
        std::fprintf(f, ",\"%s\":", s.args[i].first);
        json_number(f, s.args[i].second);
      }
      std::fputs("}}", f);
    }
  }
  for (const CounterRec& c : counters_) {
    sep();
    std::fputs("{\"name\":", f);
    json_string(f, c.name);
    std::fprintf(f, ",\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":%.3f,\"args\":{",
                 double(c.t - base) * 1e-3);
    for (size_t i = 0; i < c.values.size(); ++i) {
      if (i) std::fputc(',', f);
      json_string(f, c.values[i].first);
      std::fputc(':', f);
      json_number(f, c.values[i].second);
    }
    std::fputs("}}", f);
  }
  std::fputs("\n],\"otherData\":{", f);
  first = true;
  for (const auto& [k, v] : labels) {
    sep();
    json_string(f, k);
    std::fputc(':', f);
    json_string(f, v);
  }
  for (const auto& [k, v] : meta_) {
    sep();
    json_string(f, k);
    std::fputc(':', f);
    json_number(f, v);
  }
  std::fputs("}}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench

using namespace perfbench;

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload W --seed S "
               "--seconds T --trace 0|1 [--trace-out FILE] [--tmp DIR] "
               "[--commit ID] [--tiny]\n",
               why);
  std::exit(2);
}

bool sanitized_build() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string commit = "unknown";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      opt.workload = value();
      have_workload = true;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(value().c_str(), nullptr);
    } else if (a == "--trace") {
      opt.trace = value() == "1";
    } else if (a == "--trace-out") {
      opt.trace_out = value();
    } else if (a == "--tmp") {
      opt.tmp_dir = value();
    } else if (a == "--commit") {
      commit = value();
    } else if (a == "--tiny") {
      opt.tiny = true;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  const bool churn = opt.workload == "spanner-churn" ||
                     opt.workload == "ultra-churn" ||
                     opt.workload == "sparsifier-churn";
  if (!have_workload || (!churn && opt.workload != "served-rw"))
    usage("unknown workload");
  if (!(opt.seconds > 0)) usage("--seconds must be positive");
  if (opt.trace && opt.trace_out.empty()) usage("--trace 1 needs --trace-out");
  if (!churn && opt.tmp_dir.empty()) usage("served-rw needs --tmp");

#ifndef NDEBUG
  std::fprintf(stderr, "perfbench: refusing to report numbers from a build "
                       "without NDEBUG\n");
  return 3;
#endif
  if (sanitized_build()) {
    std::fprintf(stderr, "perfbench: refusing to report numbers from a "
                         "sanitizer build\n");
    return 3;
  }

  opt.nproc = int(std::max(1u, std::thread::hardware_concurrency()));
  // The churn workloads run the paper's parallel batch updates at nproc.
  // served-rw's 256-edge batches are too small for fork-join: at nproc
  // its write path spent twice the CPU per edge for no gain, and each
  // extra wake-up is one more chance to wait on a preempted vCPU.
  parspan::set_num_workers(churn ? opt.nproc : 1);
  std::printf(
      "# env {\"nproc\": %d, \"loop_parallelism\": %d, \"fsync_policy\": "
      "\"%s\", \"build_type\": \"%s\", \"commit\": \"%s\", \"workload\": "
      "\"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d}\n",
      opt.nproc, parspan::num_workers(),
      churn ? "none (no WAL on this workload)"
            : "leader every_record, followers every_n=8",
      PERFBENCH_BUILD_TYPE, commit.c_str(), opt.workload.c_str(),
      (unsigned long long)opt.seed, opt.seconds, int(opt.trace));
  std::fflush(stdout);

  Result res = churn ? run_churn(opt) : run_served(opt);

  for (const std::string& f : res.failures)
    std::fprintf(stderr, "perfbench: check failed: %s\n", f.c_str());
  if (opt.trace) {
    std::map<std::string, std::string> labels = {
        {"workload", opt.workload},
        {"seed", std::to_string(opt.seed)},
        {"commit", commit},
        {"nproc", std::to_string(opt.nproc)}};
    if (!Tracer::get().write(opt.trace_out, labels)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", opt.trace_out.c_str());
      return 1;
    }
  }

  const bool correct = res.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false", (unsigned long long)res.attempted,
              (unsigned long long)res.failed);
  bool first = true;
  for (const auto& [name, vu] : res.metrics) {
    if (!first) std::fputs(", ", stdout);
    first = false;
    json_string(stdout, name);
    std::fputs(": {\"value\": ", stdout);
    json_number(stdout, vu.first);
    std::fputs(", \"unit\": ", stdout);
    json_string(stdout, vu.second);
    std::fputc('}', stdout);
  }
  std::fputs("}}\n", stdout);
  std::fflush(stdout);
  return correct ? 0 : 1;
}
