#include <algorithm>
#include <stdexcept>

#include "analysis/taint_auditor.hpp"
#include "sslsim/ssl_library.hpp"
#include "workloads.hpp"

namespace keyguard::perfbench {

namespace {

constexpr std::size_t kMemBytes = 64ull << 20;
constexpr std::size_t kKeyBits = 1024;
/// Handshakes recovered by the end-of-run check.
constexpr std::size_t kCheckedHandshakes = 16;

double per_op(std::uint64_t total, std::size_t ops) {
  return ops == 0 ? 0.0 : static_cast<double>(total) / static_cast<double>(ops);
}

}  // namespace

ScpLoop::ScpLoop(std::uint64_t seed, Ledger& ledger, core::ProtectionLevel level)
    : seed_(seed), ledger_(ledger), level_(level), mix_rng_(seed ^ 0x6d69785f726e67ULL) {}

void ScpLoop::setup() {
  core::ScenarioConfig cfg;
  cfg.level = level_;
  cfg.mem_bytes = kMemBytes;
  cfg.key_bits = kKeyBits;
  cfg.seed = seed_;
  scenario_ = std::make_unique<core::Scenario>(cfg);
  attach_observers();
  server_ = std::make_unique<servers::SshServer>(scenario_->kernel(),
                                                 scenario_->ssh_config(),
                                                 scenario_->make_rng());
  if (!server_->start()) throw std::runtime_error("sshd failed to start");
  for (std::size_t s = 0; s < kSlots; ++s) {
    const auto id = server_->open_connection();
    if (!id) throw std::runtime_error("slot connection failed");
    slots_.push_back(*id);
  }
  for (std::size_t i = 0; i < kWarmupOps; ++i) {
    if (!run_op(i)) throw std::runtime_error("warm-up connection failed");
  }
  at_start_ = counters();
  timed_phase_start();
}

std::size_t ScpLoop::next_file_size(std::size_t i) {
  const std::size_t pos = i % kFileSizes.size();
  if (pos == 0) {
    round_ = kFileSizes;
    for (std::size_t k = round_.size() - 1; k > 0; --k) {
      std::swap(round_[k], round_[mix_rng_.next_below(k + 1)]);
    }
  }
  return round_[pos];
}

bool ScpLoop::run_op(std::size_t i) {
  auto& slot = slots_[i % kSlots];
  const std::size_t bytes = next_file_size(i);
  {
    auto span = ledger_.span("servers.close");
    server_->close_connection(slot);
  }
  std::optional<servers::ConnectionId> id;
  {
    auto span = ledger_.span("servers.open");
    id = server_->open_connection();
  }
  if (id) {
    slot = *id;
    auto span = ledger_.span("servers.transfer");
    server_->transfer(slot, bytes);
  }
  after_connection(i);
  return id.has_value();
}

bool ScpLoop::op(std::size_t i) { return run_op(i); }

ScpLoop::SimCounters ScpLoop::counters() const {
  const auto& kernel = scenario_->kernel();
  const auto& st = kernel.allocator().stats();
  return {st.allocs, st.pages_zeroed_on_free + st.pages_zeroed_on_user_alloc,
          kernel.cow_break_count()};
}

void ScpLoop::stats_window_end() {
  at_window_ = counters();
  const auto matches = scenario_->scanner().scan_kernel(scenario_->kernel());
  window_census_ = scan::KeyScanner::census(matches);
  window_matches_ = matches.size();
}

std::string ScpLoop::check_handshakes(std::size_t count) {
  auto& kernel = scenario_->kernel();
  sslsim::SslLibrary ssl(kernel, scenario_->ssh_config().ssl);
  auto& proc = kernel.spawn("handshake-check");
  auto key = ssl.load_private_key(proc, core::Scenario::kSshKeyPath);
  if (!key) return "probe process could not load the host key";
  const auto pub = scenario_->key().public_key();
  util::Rng rng(seed_ ^ 0x68616e647368616bULL);
  std::string failure;
  for (std::size_t k = 0; k < count && failure.empty(); ++k) {
    std::vector<std::byte> secret(32);
    rng.fill_bytes(secret);
    const auto ciphertext = crypto::pad_encrypt(rng, pub, secret);
    if (!ciphertext) return "padding refused a 32-byte secret";
    bn::Bignum plain;
    {
      auto span = ledger_.span("sslsim.private_op");
      plain = ssl.rsa_private_op(proc, *key, *ciphertext);
    }
    const auto block = plain.to_bytes_be(pub.modulus_bytes());
    if (!std::equal(secret.begin(), secret.end(), block.end() - 32)) {
      failure = "handshake " + std::to_string(k) + " recovered the wrong secret";
    }
  }
  ssl.rsa_free(proc, *key);
  kernel.exit_process(proc);
  return failure;
}

std::vector<Metric> ScpLoop::layer_metrics(std::size_t timed_ops) {
  auto& kernel = scenario_->kernel();
  std::vector<Metric> out = probe_bignum(ledger_, scenario_->key(), seed_);
  std::string failure = check_handshakes(kProbeOps);
  if (!failure.empty()) throw std::runtime_error(failure);
  sim::Process* master = kernel.find_process(server_->master_pid());
  for (std::size_t k = 0; k < kProbeOps && master != nullptr; ++k) {
    auto span = ledger_.span("sim.fork_exit");
    kernel.exit_process(kernel.fork(*master, "fork-probe"));
  }

  const double w = static_cast<double>(kStatsWindowOps);
  out.insert(out.end(), {
      {"sslsim.private_op_us", ledger_.median_us("sslsim.private_op"), "us"},
      {"servers.open_us", ledger_.median_us("servers.open"), "us"},
      {"servers.transfer_us", ledger_.median_us("servers.transfer"), "us"},
      {"servers.close_us", ledger_.median_us("servers.close"), "us"},
      {"sim.fork_exit_us", ledger_.median_us("sim.fork_exit"), "us"},
      {"sim.frames_allocated_per_op",
       static_cast<double>(at_window_.allocs - at_start_.allocs) / w, "count/op"},
      {"sim.frames_zeroed_per_op",
       static_cast<double>(at_window_.zeroed - at_start_.zeroed) / w, "count/op"},
      {"sim.cow_breaks_per_op",
       static_cast<double>(at_window_.cow_breaks - at_start_.cow_breaks) / w, "count/op"},
      {"census.copies_allocated", static_cast<double>(window_census_.allocated), "count"},
      {"census.copies_unallocated", static_cast<double>(window_census_.unallocated), "count"},
      {"scan.matches", static_cast<double>(window_matches_), "count"},
  });
  append_layer_metrics(out, timed_ops);
  return out;
}

// ---- ssh_scp ---------------------------------------------------------------

SshScp::SshScp(std::uint64_t seed, Ledger& ledger)
    : ScpLoop(seed, ledger, core::ProtectionLevel::kIntegrated) {}

std::string SshScp::verify() {
  const auto matches = scenario_->scanner().scan_kernel(scenario_->kernel());
  if (auto failure = check_single_locked_copy(matches, scenario_->kernel());
      !failure.empty()) {
    return failure;
  }
  return check_handshakes(kCheckedHandshakes);
}

// ---- audited_ssh -----------------------------------------------------------

AuditedSsh::AuditedSsh(std::uint64_t seed, Ledger& ledger)
    : ScpLoop(seed, ledger, core::ProtectionLevel::kNone) {}

void AuditedSsh::attach_observers() {
  audit_ = std::make_unique<AuditStack>(scenario_->kernel(),
                                        scenario_->scanner().patterns(),
                                        ledger_.traced());
  // Prime the sweep cache so every later sweep is incremental.
  (void)scenario_->scanner().scan_kernel_incremental(scenario_->kernel(),
                                                     audit_->journal(), cache_);
}

void AuditedSsh::after_connection(std::size_t i) {
  if ((i + 1) % kSweepEvery != 0) return;
  scan::ScanStats stats;
  {
    auto span = ledger_.span("scan.incremental_sweep");
    (void)scenario_->scanner().scan_kernel_incremental(scenario_->kernel(),
                                                       audit_->journal(), cache_, &stats);
  }
  ++sweeps_;
  dirty_frames_ += stats.dirty_frames;
}

std::array<HookTally, 4> AuditedSsh::tallies() const {
  return {audit_->taint_tally(), audit_->journal_tally(), audit_->monitor_tally(),
          audit_->alert_tally()};
}

void AuditedSsh::timed_phase_start() {
  tally_at_start_ = tallies();
  bus_at_start_ = audit_->bus_events();
  sweeps_ = 0;
  dirty_frames_ = 0;
}

void AuditedSsh::stats_window_end() {
  ScpLoop::stats_window_end();
  // Every kernel hook event passes through the taint map's proxy.
  events_at_window_ = audit_->taint_tally();
  bus_at_window_ = audit_->bus_events();
  window_sweeps_ = sweeps_;
  window_dirty_frames_ = dirty_frames_;
}

std::string AuditedSsh::verify() {
  // Hook time is charged to the timed phase only.
  tally_at_end_ = tallies();

  auto& kernel = scenario_->kernel();
  const auto& scanner = scenario_->scanner();
  const auto incremental = scanner.scan_kernel_incremental(kernel, audit_->journal(), cache_);
  const auto full = scanner.scan_kernel(kernel);
  if (auto failure = check_same_sweep(incremental, full); !failure.empty()) {
    return "incremental sweep differs from scan_kernel: " + failure;
  }
  final_census_ = scan::KeyScanner::census(full);
  if (monitor_copies() != as_copies(full)) {
    return "ExposureMonitor live set differs from the sweep";
  }
  const analysis::TaintAuditor auditor(audit_->taint());
  const auto cross = auditor.cross_check(scanner.patterns(), full);
  if (!cross.all_hits_covered()) return "a scanner hit is not taint-covered";
  for (const auto& m : full) {
    std::size_t len = 0;
    for (const auto& p : scanner.patterns().patterns) {
      if (p.name == m.part) len = p.bytes.size();
    }
    for (std::size_t b = 0; b < len; ++b) {
      if (!sim::taint_tag_secret(audit_->taint().phys_tag(m.phys_offset + b))) {
        return "scanner hit at " + std::to_string(m.phys_offset) + " not secret-tainted";
      }
    }
  }
  return check_handshakes(kCheckedHandshakes);
}

std::vector<CopyAt> AuditedSsh::monitor_copies() const {
  const auto& patterns = audit_->monitor().patterns().patterns;
  std::vector<CopyAt> out;
  for (const auto& c : audit_->monitor().copies()) {
    out.push_back({c.offset, patterns[c.pattern].name});
  }
  return out;
}

void AuditedSsh::append_layer_metrics(std::vector<Metric>& out, std::size_t timed_ops) {
  const auto us_per_op = [&](std::size_t k) {
    return per_op(tally_at_end_[k].ns - tally_at_start_[k].ns, timed_ops) / 1000.0;
  };
  const double w = static_cast<double>(kStatsWindowOps);
  const auto& win = events_at_window_;
  const auto& start = tally_at_start_[0];
  out.push_back({"hooks.taint_map_us_per_op", us_per_op(0), "us/op"});
  out.push_back({"hooks.journal_us_per_op", us_per_op(1), "us/op"});
  out.push_back({"hooks.monitor_us_per_op", us_per_op(2), "us/op"});
  out.push_back({"hooks.alert_us_per_op", us_per_op(3), "us/op"});
  out.push_back({"hooks.calls_per_op", static_cast<double>(win.calls - start.calls) / w,
                 "count/op"});
  out.push_back({"hooks.bytes_per_op", static_cast<double>(win.bytes - start.bytes) / w,
                 "B/op"});
  out.push_back({"obs.bus_events_per_op",
                 static_cast<double>(bus_at_window_ - bus_at_start_) / w, "count/op"});
  out.push_back({"scan.incremental_sweep_us", ledger_.median_us("scan.incremental_sweep"),
                 "us"});
  out.push_back({"scan.dirty_frames_per_sweep",
                 window_sweeps_ == 0 ? 0.0
                                     : static_cast<double>(window_dirty_frames_) /
                                           static_cast<double>(window_sweeps_),
                 "count"});
}

}  // namespace keyguard::perfbench
