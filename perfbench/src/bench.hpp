// Shared pieces of the host-time benchmark: the metric record, the
// percentile routine, the traced run's span ledger and the workload
// interface the runner drives.
//
// All times are host time (std::chrono::steady_clock); nothing here
// reports simulated time.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.hpp"

namespace keyguard::perfbench {

using Clock = std::chrono::steady_clock;

inline double micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Nearest-rank percentile: the smallest sample with at least p% of the
/// samples at or below it (p in (0, 100]). 0 for an empty sample.
double percentile(std::vector<double> samples, double p);

/// The tail every workload reports: the p-th percentile of each run of
/// `block` consecutive samples, lower quartile (nearest rank) over the
/// full blocks (the whole sample when there is no full block). Bursts of
/// host interference that slow 0.3-2% of the ops of some runs set the
/// whole-run p99, and in the noisiest runs the p99 of most blocks too; a
/// tail the program itself has (a large transfer, a sweep) recurs in
/// every block and so still sets this figure.
double block_percentile(const std::vector<double>& samples, std::size_t block, double p);

/// Every run times at least this many ops, so the p99 has at least ten
/// samples beyond it. The deterministic per-layer statistics (counts per
/// op, census, hit ratio) are taken over exactly these first ops, so they
/// repeat for a seed however fast the host is.
inline constexpr std::size_t kStatsWindowOps = 1000;

/// The traced run's own span recorder. It owns an obs::Tracer instance
/// (never the global one, so spans inside the program stay off) and keeps
/// spans in memory until the run ends. span() is inert until the runner
/// starts recording, which it does only in traced runs and only once
/// set-up has finished.
class Ledger {
 public:
  explicit Ledger(bool traced) : traced_(traced) {}

  bool traced() const noexcept { return traced_; }
  void start_recording();
  obs::Tracer::Span span(std::string_view name) {
    return obs::Tracer::Span(tracer_, name);
  }
  /// Median span duration in microseconds; 0 when no such span ran.
  double median_us(std::string_view name);
  std::string jsonl() const { return tracer_.jsonl(); }

 private:
  const std::vector<double>& durations_us(std::string_view name);

  bool traced_;
  obs::Tracer tracer_;
  std::size_t summarized_events_ = 0;
  std::map<std::string, std::vector<double>, std::less<>> by_name_;
};

/// One benchmark workload: a closed loop in which a single client thread
/// issues its next operation once the previous one has finished.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Everything before the first timed op: keys, simulated RAM, servers,
  /// observers, RAM fill, tenant sealing and warm-up.
  virtual void setup() = 0;
  /// The number of ops every run times, whatever `--seconds` says; 0 to
  /// time until the deadline (and at least kStatsWindowOps ops). A
  /// workload whose per-op cost grows with the ops already done fixes its
  /// count, so that every run and every build does the same simulated work.
  virtual std::size_t fixed_ops() const { return 0; }
  /// Op number `i` (0-based) of the timed phase; false when it failed.
  virtual bool op(std::size_t i) = 0;
  /// Checks the output of the op that just ran, outside its timing.
  virtual bool check_op() { return true; }
  /// Called once right after op kStatsWindowOps-1 in traced runs:
  /// snapshot the deterministic statistics.
  virtual void stats_window_end() {}
  /// End-of-run correctness checks; empty when every check holds,
  /// otherwise what failed.
  virtual std::string verify() = 0;
  /// Traced runs only, after verify(): probes and per-layer metrics.
  /// `timed_ops` is the number of ops the timed phase ran.
  virtual std::vector<Metric> layer_metrics(std::size_t timed_ops) = 0;
};

/// ssh_scp, audited_ssh, ram_sweep or keystore_sign; null for other names.
std::unique_ptr<Workload> make_workload(std::string_view name, std::uint64_t seed,
                                        Ledger& ledger);

}  // namespace keyguard::perfbench
