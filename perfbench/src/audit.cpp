#include "audit.hpp"

#include <chrono>

namespace keyguard::perfbench {

template <class F>
void TimedTracker::timed(std::size_t bytes, F&& f) {
  const auto t0 = std::chrono::steady_clock::now();
  f();
  const auto t1 = std::chrono::steady_clock::now();
  ++tally_.calls;
  tally_.bytes += bytes;
  tally_.ns += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
}

void TimedTracker::on_phys_store(std::size_t off, std::size_t len, sim::TaintTag tag) {
  timed(len, [&] { inner_.on_phys_store(off, len, tag); });
}
void TimedTracker::on_phys_copy(std::size_t dst, std::size_t src, std::size_t len) {
  timed(len, [&] { inner_.on_phys_copy(dst, src, len); });
}
void TimedTracker::on_phys_clear(std::size_t off, std::size_t len) {
  timed(len, [&] { inner_.on_phys_clear(off, len); });
}
void TimedTracker::on_swap_store(std::uint32_t slot, std::size_t phys_src) {
  timed(sim::kPageSize, [&] { inner_.on_swap_store(slot, phys_src); });
}
void TimedTracker::on_swap_load(std::size_t phys_dst, std::uint32_t slot) {
  timed(sim::kPageSize, [&] { inner_.on_swap_load(phys_dst, slot); });
}
void TimedTracker::on_swap_clear(std::uint32_t slot) {
  timed(sim::kPageSize, [&] { inner_.on_swap_clear(slot); });
}

void TimedSink::on_obs_event(const obs::ObsEvent& ev) {
  const auto t0 = std::chrono::steady_clock::now();
  inner_.on_obs_event(ev);
  const auto t1 = std::chrono::steady_clock::now();
  ++tally_.calls;
  tally_.ns += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
}

AuditStack::AuditStack(sim::Kernel& kernel, const scan::KeyPatterns& patterns,
                       bool timed)
    : kernel_(kernel),
      taint_(kernel),
      journal_(kernel.memory().size_bytes()),
      monitor_(kernel.memory(), patterns),
      alerts_(kernel, taint_, &monitor_) {
  for (const auto& rule : obs::default_rules()) alerts_.add_rule(rule);
  // Order matters: the engine evaluates rules against the shadow map and
  // the monitor, so both must have absorbed an event before it runs.
  const std::vector<sim::TaintTracker*> trackers = {&taint_, &journal_, &monitor_,
                                                    &alerts_};
  for (auto* t : trackers) {
    if (timed) {
      proxies_.push_back(std::make_unique<TimedTracker>(*t));
      fanout_.add(proxies_.back().get());
    } else {
      fanout_.add(t);
    }
  }
  subscribed_ = &alerts_;
  if (timed) {
    bus_proxy_ = std::make_unique<TimedSink>(alerts_);
    subscribed_ = bus_proxy_.get();
  }
  auto& bus = obs::EventBus::global();
  bus.subscribe(subscribed_);
  bus.set_enabled(true);
  kernel_.attach_taint(&fanout_);
}

AuditStack::~AuditStack() {
  auto& bus = obs::EventBus::global();
  bus.set_enabled(false);
  bus.unsubscribe(subscribed_);
  kernel_.attach_taint(nullptr);
}

HookTally AuditStack::tally(std::size_t i) const {
  return i < proxies_.size() ? proxies_[i]->tally() : HookTally{};
}
HookTally AuditStack::taint_tally() const { return tally(0); }
HookTally AuditStack::journal_tally() const { return tally(1); }
HookTally AuditStack::monitor_tally() const { return tally(2); }

HookTally AuditStack::alert_tally() const {
  HookTally t = tally(3);
  if (bus_proxy_) t.ns += bus_proxy_->tally().ns;
  return t;
}

std::uint64_t AuditStack::bus_events() const {
  return bus_proxy_ ? bus_proxy_->tally().calls : 0;
}

}  // namespace keyguard::perfbench
