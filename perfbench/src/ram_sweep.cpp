#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "workloads.hpp"

namespace keyguard::perfbench {

namespace {

/// Byte-only scans per traced run.
constexpr std::size_t kScanProbes = 10;

}  // namespace

RamSweep::RamSweep(std::uint64_t seed, Ledger& ledger) : seed_(seed), ledger_(ledger) {}

void RamSweep::setup() {
  core::ScenarioConfig cfg;
  cfg.level = core::ProtectionLevel::kNone;
  cfg.mem_bytes = kMemBytes;
  cfg.key_bits = 1024;
  cfg.seed = seed_;
  scenario_ = std::make_unique<core::Scenario>(cfg);
  fill_every_frame();

  // Server churn: exited children leave key copies in free frames, the
  // connections kept open hold copies in allocated ones.
  server_ = std::make_unique<servers::SshServer>(scenario_->kernel(),
                                                 scenario_->ssh_config(),
                                                 scenario_->make_rng());
  if (!server_->start()) throw std::runtime_error("sshd failed to start");
  for (std::size_t c = 0; c < kChurnConnections; ++c) {
    const auto size = ScpLoop::kFileSizes[c % ScpLoop::kFileSizes.size()];
    if (!server_->handle_connection(size)) throw std::runtime_error("churn connection failed");
  }
  for (std::size_t s = 0; s < ScpLoop::kSlots; ++s) {
    if (!server_->open_connection()) throw std::runtime_error("slot connection failed");
  }
  plant_copies();

  scan::ScanStats stats;
  first_sweep_ = as_copies(scenario_->scanner().scan_kernel(scenario_->kernel(), &stats));
  for (std::size_t w = 1; w < kWarmupSweeps; ++w) {
    (void)scenario_->scanner().scan_kernel(scenario_->kernel());
  }
  std::fprintf(stderr, "ram_sweep: %zu shard(s), matcher %s, simd %s, %zu copies\n",
               stats.shard_count, scan::matcher_name(stats.matcher),
               scan::simd_kind_name(stats.simd_kind), first_sweep_.size());
}

void RamSweep::fill_every_frame() {
  // Never-written simulated RAM is backed by the host's shared zero page,
  // which a sweep reads far faster than DRAM; one process maps every free
  // frame and writes random bytes to it, then exits (a stock kernel frees
  // the frames without clearing them).
  auto& kernel = scenario_->kernel();
  auto& filler = kernel.spawn("filler");
  const std::size_t bytes = kernel.allocator().free_count() * sim::kPageSize;
  const sim::VirtAddr base = kernel.mmap_anon(filler, bytes, /*mlocked=*/false, "fill");
  if (base == 0) throw std::runtime_error("fill mapping failed");
  util::Rng rng(seed_ ^ 0x66696c6cULL);
  std::vector<std::byte> chunk(1u << 20);
  for (std::size_t off = 0; off < bytes; off += chunk.size()) {
    const std::size_t n = std::min(chunk.size(), bytes - off);
    rng.fill_bytes(std::span(chunk).first(n));
    kernel.mem_write(filler, base + off, std::span<const std::byte>(chunk).first(n));
  }
  kernel.exit_process(filler);

  const auto& mem = kernel.memory();
  for (sim::FrameNumber f = 0; f < mem.page_count(); ++f) {
    const auto page = mem.page(f);
    if (std::all_of(page.begin(), page.end(), [](std::byte b) { return b == std::byte{0}; })) {
      throw std::runtime_error("frame " + std::to_string(f) + " was never written");
    }
  }
}

void RamSweep::plant_copies() {
  // Writes needles straight into seeded frames of each state, the way a
  // residue copy lands in RAM, and records where they went.
  auto& kernel = scenario_->kernel();
  const auto& patterns = scenario_->scanner().patterns().patterns;
  std::vector<sim::FrameNumber> free_frames;
  std::vector<sim::FrameNumber> used_frames;
  for (sim::FrameNumber f = 0; f < kernel.memory().page_count(); ++f) {
    (kernel.allocator().is_free(f) ? free_frames : used_frames).push_back(f);
  }
  util::Rng rng(seed_ ^ 0x706c616e74ULL);
  std::size_t k = 0;
  for (auto* frames : {&free_frames, &used_frames}) {
    if (frames->size() < kPlantsPerState) throw std::runtime_error("too few frames to plant");
    for (std::size_t n = 0; n < kPlantsPerState; ++n, ++k) {
      std::swap((*frames)[n], (*frames)[n + rng.next_below(frames->size() - n)]);
      const sim::FrameNumber frame = (*frames)[n];
      const auto& pattern = patterns[k % patterns.size()];
      const std::size_t at = rng.next_below(sim::kPageSize - pattern.bytes.size() + 1);
      std::copy(pattern.bytes.begin(), pattern.bytes.end(),
                kernel.memory().page(frame).begin() + static_cast<std::ptrdiff_t>(at));
      planted_.push_back({static_cast<std::size_t>(frame) * sim::kPageSize + at, pattern.name});
    }
  }
}

bool RamSweep::op(std::size_t /*i*/) {
  auto span = ledger_.span("scan.sweep");
  last_sweep_ = scenario_->scanner().scan_kernel(scenario_->kernel());
  return true;
}

bool RamSweep::check_op() { return as_copies(last_sweep_) == first_sweep_; }

std::string RamSweep::verify() {
  const auto reference = reference_search(scenario_->kernel().memory().all(),
                                          scenario_->scanner().patterns());
  return check_sweep(last_sweep_, reference, planted_, scenario_->kernel());
}

std::vector<Metric> RamSweep::layer_metrics(std::size_t /*timed_ops*/) {
  const auto& scanner = scenario_->scanner();
  const auto& kernel = scenario_->kernel();
  std::vector<Metric> out = probe_bignum(ledger_, scenario_->key(), seed_);
  for (std::size_t k = 0; k < kScanProbes; ++k) {
    auto span = ledger_.span("scan.byte_scan");
    (void)scanner.scan_capture(kernel.memory().all());
  }
  const auto census = scan::KeyScanner::census(last_sweep_);
  out.insert(out.end(),
             {{"scan.sweep_ms", ledger_.median_us("scan.sweep") / 1000.0, "ms"},
              {"scan.byte_scan_ms", ledger_.median_us("scan.byte_scan") / 1000.0, "ms"},
              {"scan.matches", static_cast<double>(last_sweep_.size()), "count"},
              {"census.copies_allocated", static_cast<double>(census.allocated), "count"},
              {"census.copies_unallocated", static_cast<double>(census.unallocated), "count"}});
  return out;
}

}  // namespace keyguard::perfbench
