// perfbench: runs one workload in this process and prints one JSON line.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--trace-out PATH]
//
// Untraced runs print the end-to-end metrics; traced runs (--trace 1)
// print the per-layer metrics. --trace-out writes the traced run's spans
// as JSONL once the run has ended. perfbench/run.py is the usual entry.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>

#include "bench.hpp"

namespace {

namespace pb = keyguard::perfbench;
using pb::Clock;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        a.workload = value;
      } else if (flag == "--seed") {
        a.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value);
      } else if (flag == "--trace") {
        a.trace = value != "0";
      } else if (flag == "--trace-out") {
        a.trace_out = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0;
}

/// The benchmark measures the scanner's default matcher, whatever the
/// caller's environment says, with one shard: every sweep runs on the
/// calling thread and the shared ThreadPool is never used. Its
/// parallel_for_blocks lets a helper lock the caller's stack-held mutex
/// after the caller may have returned, which left pooled runs hung at
/// exit (see CHANGES.md).
void pin_environment() {
  setenv("KEYGUARD_SCAN_THREADS", "1", 1);
  unsetenv("KEYGUARD_POOL_WORKERS");
  unsetenv("KEYGUARD_SCAN_MATCHER");
  unsetenv("KEYGUARD_SCAN_SIMD");
}

/// VmHWM of this process image. getrusage's ru_maxrss is not used: Linux
/// carries it across execve, so it would report the launcher's peak.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  return 0.0;
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<pb::Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    line += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const auto process_start = Clock::now();
  Args args;
  if (!parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--trace-out PATH]\n");
    return 2;
  }
  pin_environment();
  pb::Ledger ledger(args.trace);
  auto workload = pb::make_workload(args.workload, args.seed, ledger);
  if (!workload) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  try {
    workload->setup();
    const double setup_s =
        std::chrono::duration<double>(Clock::now() - process_start).count();
    ledger.start_recording();

    // The closed loop: the next op starts when the previous one and its
    // check have finished. A run ends after the workload's fixed op count,
    // or else once `seconds` have passed and at least kStatsWindowOps ops
    // were timed.
    std::vector<double> latency_us;
    latency_us.reserve(1u << 16);
    std::size_t failed = 0;
    double busy_us = 0.0;
    const auto deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                             std::chrono::duration<double>(args.seconds));
    const std::size_t fixed_ops = workload->fixed_ops();
    for (std::size_t i = 0;; ++i) {
      if (fixed_ops > 0 ? i >= fixed_ops
                        : i >= pb::kStatsWindowOps && Clock::now() >= deadline) {
        break;
      }
      const auto t0 = Clock::now();
      bool ok = workload->op(i);
      const double us = pb::micros(Clock::now() - t0);
      latency_us.push_back(us);
      busy_us += us;
      ok = workload->check_op() && ok;
      if (!ok) ++failed;
      if (args.trace && i + 1 == pb::kStatsWindowOps) workload->stats_window_end();
    }
    const std::size_t ops = latency_us.size();
    const double rss_mb = peak_rss_mb();
    const double ops_per_s = busy_us > 0 ? static_cast<double>(ops) / (busy_us / 1e6) : 0.0;

    const std::string failure = workload->verify();
    if (!failure.empty()) std::fprintf(stderr, "perfbench: check failed: %s\n", failure.c_str());

    std::vector<pb::Metric> metrics;
    if (args.trace) {
      metrics = workload->layer_metrics(ops);
      metrics.push_back({"trace.ops_per_s", ops_per_s, "op/s"});
      if (!args.trace_out.empty()) {
        std::ofstream out(args.trace_out);
        out << ledger.jsonl();
        if (!out) std::fprintf(stderr, "perfbench: cannot write %s\n", args.trace_out.c_str());
      }
    } else {
      metrics = {{"setup_s", setup_s, "s"},
                 {"ops_per_s", ops_per_s, "op/s"},
                 {"op_p50_us", pb::percentile(latency_us, 50.0), "us"},
                 {"op_p99_us", pb::block_percentile(latency_us, pb::kStatsWindowOps, 99.0),
                  "us"},
                 {"peak_rss_mb", rss_mb, "MB"}};
    }
    if (failed > 0) std::fprintf(stderr, "perfbench: %zu op(s) failed\n", failed);
    const bool correct = failure.empty() && failed == 0;
    print_result(correct, ops, failed, metrics);
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", args.workload.c_str(), e.what());
    return 1;
  }
}
