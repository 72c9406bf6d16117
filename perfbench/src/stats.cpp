#include <algorithm>
#include <cmath>

#include "bench.hpp"

namespace keyguard::perfbench {

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(samples.size()));
  const auto idx = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return samples[std::min(idx, samples.size() - 1)];
}

double block_percentile(const std::vector<double>& samples, std::size_t block, double p) {
  if (block == 0 || samples.size() < block) return percentile(samples, p);
  std::vector<double> per_block;
  for (std::size_t b = 0; b + block <= samples.size(); b += block) {
    per_block.push_back(percentile({samples.begin() + static_cast<std::ptrdiff_t>(b),
                                    samples.begin() + static_cast<std::ptrdiff_t>(b + block)},
                                   p));
  }
  return percentile(per_block, 25.0);
}

void Ledger::start_recording() {
  if (!traced_) return;
  // Spans are only ever recorded at the benchmark's own call sites, a few
  // per op; the capacity just has to hold the longest traced run.
  tracer_.set_capacity(std::size_t{1} << 23);
  tracer_.set_enabled(true);
}

const std::vector<double>& Ledger::durations_us(std::string_view name) {
  if (summarized_events_ != tracer_.event_count()) {
    by_name_.clear();
    for (const auto& ev : tracer_.snapshot()) {
      if (ev.phase == 'X') {
        by_name_[ev.name].push_back(static_cast<double>(ev.dur_ns) / 1000.0);
      }
    }
    summarized_events_ = tracer_.event_count();
  }
  static const std::vector<double> kNone;
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? kNone : it->second;
}

double Ledger::median_us(std::string_view name) {
  return percentile(durations_us(name), 50.0);
}

}  // namespace keyguard::perfbench
