// The audited machine's observer stack, wired in one place (the
// AuditStack constructor) so that a change to the hook interface touches
// only that function.
//
// Same set as `scanmemory_tool --taint --incremental --alerts`: a
// ShadowTaintMap, a DirtyFrameJournal, an ExposureMonitor and an
// AlertEngine with the default rules, fed by one TaintFanout, with the
// engine also subscribed to the global EventBus. In traced runs every
// tracker and the bus subscription sit behind a timing proxy that counts
// calls and bytes and accumulates the host time each observer spends.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "analysis/taint_map.hpp"
#include "obs/alert.hpp"
#include "obs/event_bus.hpp"
#include "obs/exposure_monitor.hpp"
#include "scan/dirty_journal.hpp"
#include "scan/key_scanner.hpp"
#include "sim/kernel.hpp"
#include "sim/taint.hpp"

namespace keyguard::perfbench {

/// What a timing proxy saw. `ns` is host time inside the wrapped observer.
struct HookTally {
  std::uint64_t calls = 0;
  std::uint64_t bytes = 0;
  std::uint64_t ns = 0;
};

/// Forwards every hook to one TaintTracker and times it.
class TimedTracker final : public sim::TaintTracker {
 public:
  explicit TimedTracker(sim::TaintTracker& inner) : inner_(inner) {}

  void on_phys_store(std::size_t off, std::size_t len, sim::TaintTag tag) override;
  void on_phys_copy(std::size_t dst, std::size_t src, std::size_t len) override;
  void on_phys_clear(std::size_t off, std::size_t len) override;
  void on_swap_store(std::uint32_t slot, std::size_t phys_src) override;
  void on_swap_load(std::size_t phys_dst, std::uint32_t slot) override;
  void on_swap_clear(std::uint32_t slot) override;

  const HookTally& tally() const noexcept { return tally_; }

 private:
  template <class F>
  void timed(std::size_t bytes, F&& f);

  sim::TaintTracker& inner_;
  HookTally tally_;
};

/// Forwards every bus event to one ObsEventSink and times it.
class TimedSink final : public obs::ObsEventSink {
 public:
  explicit TimedSink(obs::ObsEventSink& inner) : inner_(inner) {}
  void on_obs_event(const obs::ObsEvent& ev) override;
  const HookTally& tally() const noexcept { return tally_; }

 private:
  obs::ObsEventSink& inner_;
  HookTally tally_;
};

/// Owns the observers. Construct it before the workload moves a byte (the
/// shadow map and the monitor must see every flow); it detaches itself
/// from the kernel and the bus when destroyed.
class AuditStack {
 public:
  AuditStack(sim::Kernel& kernel, const scan::KeyPatterns& patterns, bool timed);
  ~AuditStack();

  AuditStack(const AuditStack&) = delete;
  AuditStack& operator=(const AuditStack&) = delete;

  analysis::ShadowTaintMap& taint() { return taint_; }
  scan::DirtyFrameJournal& journal() { return journal_; }
  obs::ExposureMonitor& monitor() { return monitor_; }

  /// Proxy tallies (all zero in untraced runs, where no proxy exists).
  HookTally taint_tally() const;
  HookTally journal_tally() const;
  HookTally monitor_tally() const;
  /// Taint hooks plus bus events of the AlertEngine.
  HookTally alert_tally() const;
  /// Bus events delivered to the engine.
  std::uint64_t bus_events() const;

 private:
  HookTally tally(std::size_t i) const;

  sim::Kernel& kernel_;
  analysis::ShadowTaintMap taint_;
  scan::DirtyFrameJournal journal_;
  obs::ExposureMonitor monitor_;
  obs::AlertEngine alerts_;
  // Proxies in fanout order: taint map, journal, monitor, engine.
  std::vector<std::unique_ptr<TimedTracker>> proxies_;
  std::unique_ptr<TimedSink> bus_proxy_;
  obs::ObsEventSink* subscribed_ = nullptr;
  sim::TaintFanout fanout_;
};

}  // namespace keyguard::perfbench
