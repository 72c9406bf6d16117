// The four workloads. Each is a closed loop driven from one thread; any
// simulated connection slots live in that same thread.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "audit.hpp"
#include "bench.hpp"
#include "checks.hpp"
#include "core/scenario.hpp"
#include "keystore/keystore.hpp"
#include "servers/ssh_server.hpp"

namespace keyguard::perfbench {

/// Fig. 8's scp loop: each op closes one of kSlots connection slots, opens
/// a new connection (fork plus RSA handshake) and transfers one file of
/// the paper's mix. Every round of 10 ops moves each file size once, in a
/// seeded order.
class ScpLoop : public Workload {
 public:
  static constexpr std::size_t kSlots = 20;
  static constexpr std::array<std::size_t, 10> kFileSizes = {
      1u << 10, 2u << 10, 4u << 10, 8u << 10, 16u << 10,
      32u << 10, 64u << 10, 128u << 10, 256u << 10, 512u << 10};
  /// Every slot through every file size once before timing starts.
  static constexpr std::size_t kWarmupOps = kSlots * kFileSizes.size();

  void setup() override;
  bool op(std::size_t i) override;
  void stats_window_end() override;
  std::vector<Metric> layer_metrics(std::size_t timed_ops) override;

 protected:
  ScpLoop(std::uint64_t seed, Ledger& ledger, core::ProtectionLevel level);

  /// Audited subclass hooks.
  virtual void attach_observers() {}
  virtual void after_connection(std::size_t /*i*/) {}
  /// Set-up has ended; the next op is the first timed one.
  virtual void timed_phase_start() {}
  virtual void append_layer_metrics(std::vector<Metric>& /*out*/, std::size_t /*timed_ops*/) {}

  /// Recovers freshly sent secrets through the sim library in a new
  /// process of the same machine; empty when every one matched.
  std::string check_handshakes(std::size_t count);

  std::uint64_t seed_;
  Ledger& ledger_;
  core::ProtectionLevel level_;
  std::unique_ptr<core::Scenario> scenario_;
  std::unique_ptr<servers::SshServer> server_;
  std::vector<servers::ConnectionId> slots_;
  util::Rng mix_rng_;
  std::array<std::size_t, 10> round_{};

  struct SimCounters {
    std::uint64_t allocs = 0;
    std::uint64_t zeroed = 0;
    std::uint64_t cow_breaks = 0;
  };
  SimCounters counters() const;
  SimCounters at_start_{};
  SimCounters at_window_{};
  scan::Census window_census_{};
  std::size_t window_matches_ = 0;

 private:
  std::size_t next_file_size(std::size_t i);
  bool run_op(std::size_t i);
};

/// Integrated defense (library + kernel + O_NOCACHE), unobserved.
class SshScp final : public ScpLoop {
 public:
  /// About 10 s here. The op count is fixed because the kernel keeps
  /// every process it spawned, so later connections cost more.
  static constexpr std::size_t kTimedOps = 25000;

  SshScp(std::uint64_t seed, Ledger& ledger);
  std::size_t fixed_ops() const override { return kTimedOps; }
  std::string verify() override;
};

/// Stock sshd (re-exec per connection) with the full observer stack and
/// an incremental sweep after every kSweepEvery connections, counted in
/// that connection's latency.
class AuditedSsh final : public ScpLoop {
 public:
  static constexpr std::size_t kSweepEvery = 200;
  /// About 10 s here, in 60 sweeps. Fixed because each incremental sweep
  /// costs more the more processes the kernel has spawned.
  static constexpr std::size_t kTimedOps = 12000;

  AuditedSsh(std::uint64_t seed, Ledger& ledger);
  std::size_t fixed_ops() const override { return kTimedOps; }
  std::string verify() override;

  /// The monitor's live copy set (valid after verify()).
  std::vector<CopyAt> monitor_copies() const;
  /// Census of the final full sweep (valid after verify()).
  scan::Census final_census() const { return final_census_; }

 private:
  void attach_observers() override;
  void after_connection(std::size_t i) override;
  void timed_phase_start() override;
  void stats_window_end() override;
  void append_layer_metrics(std::vector<Metric>& out, std::size_t timed_ops) override;
  /// Proxy tallies in fanout order: taint map, journal, monitor, engine.
  std::array<HookTally, 4> tallies() const;

  std::unique_ptr<AuditStack> audit_;
  scan::SweepCache cache_;
  std::array<HookTally, 4> tally_at_start_{};
  std::array<HookTally, 4> tally_at_end_{};
  HookTally events_at_window_{};
  std::uint64_t bus_at_start_ = 0;
  std::uint64_t bus_at_window_ = 0;
  std::size_t window_sweeps_ = 0;
  std::size_t window_dirty_frames_ = 0;
  std::size_t sweeps_ = 0;
  std::size_t dirty_frames_ = 0;
  scan::Census final_census_{};
};

/// Repeated full scan_kernel sweeps of a stock 256 MB machine whose every
/// frame has been written, with planted key copies in free and allocated
/// frames.
class RamSweep final : public Workload {
 public:
  static constexpr std::size_t kMemBytes = 256ull << 20;
  static constexpr std::size_t kChurnConnections = 200;
  static constexpr std::size_t kPlantsPerState = 8;
  static constexpr std::size_t kWarmupSweeps = 5;

  RamSweep(std::uint64_t seed, Ledger& ledger);
  void setup() override;
  /// kStatsWindowOps sweeps, the fewest that leave ten samples beyond
  /// the p99; about 64 s here.
  std::size_t fixed_ops() const override { return kStatsWindowOps; }
  bool op(std::size_t i) override;
  bool check_op() override;
  std::string verify() override;
  std::vector<Metric> layer_metrics(std::size_t timed_ops) override;

 private:
  void fill_every_frame();
  void plant_copies();

  std::uint64_t seed_;
  Ledger& ledger_;
  std::unique_ptr<core::Scenario> scenario_;
  std::unique_ptr<servers::SshServer> server_;
  std::vector<CopyAt> planted_;
  std::vector<CopyAt> first_sweep_;
  std::vector<scan::MemoryMatch> last_sweep_;
};

/// Host keystore with kTenants sealed keys and a kPoolKeys plaintext pool;
/// one thread signs, kHotShare of the time with one of the kHotTenants.
class KeystoreSign final : public Workload {
 public:
  static constexpr std::size_t kTenants = 64;
  static constexpr std::size_t kPoolKeys = 8;
  static constexpr std::size_t kHotTenants = kTenants / 5;
  static constexpr double kHotShare = 0.8;
  static constexpr std::size_t kKeyBits = 1024;
  static constexpr std::size_t kWarmupOps = 500;

  KeystoreSign(std::uint64_t seed, Ledger& ledger);
  void setup() override;
  bool op(std::size_t i) override;
  bool check_op() override;
  void stats_window_end() override;
  std::string verify() override;
  std::vector<Metric> layer_metrics(std::size_t timed_ops) override;

 private:
  /// One sign with a fresh tenant choice and message; the result is kept
  /// for check_last().
  void sign_one();
  /// Signature and pool-bound checks of the last sign.
  bool check_last();

  std::uint64_t seed_;
  Ledger& ledger_;
  util::Rng rng_;
  std::vector<crypto::RsaPrivateKey> keys_;
  std::vector<keystore::KeyId> ids_;
  std::unique_ptr<keystore::Keystore> store_;
  std::uint64_t counted_misses_ = 0;
  std::uint64_t misses_at_start_ = 0;
  std::uint64_t window_misses_ = 0;
  std::size_t last_tenant_ = 0;
  bn::Bignum last_message_;
  bn::Bignum last_signature_;
  std::string failure_;
};

/// Traced runs: host CRT ops on `key` and key generations, recorded as
/// "bignum.crt_op" and "bignum.keygen" spans; returns their metrics.
std::vector<Metric> probe_bignum(Ledger& ledger, const crypto::RsaPrivateKey& key,
                                 std::uint64_t seed);

/// A value below the public modulus, drawn from `rng`.
bn::Bignum random_below_modulus(util::Rng& rng, const crypto::RsaPublicKey& pub);

/// Probe calls per layer in traced runs, made after the timed phase.
inline constexpr std::size_t kProbeOps = 200;

}  // namespace keyguard::perfbench
