#include "checks.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <set>

namespace keyguard::perfbench {

namespace {

std::string describe(const CopyAt& c) {
  return c.part + " at " + std::to_string(c.offset);
}

}  // namespace

std::vector<CopyAt> reference_search(std::span<const std::byte> bytes,
                                     const scan::KeyPatterns& patterns) {
  std::vector<std::pair<std::pair<std::size_t, std::size_t>, std::string>> hits;
  for (std::size_t pi = 0; pi < patterns.patterns.size(); ++pi) {
    const auto& needle = patterns.patterns[pi].bytes;
    if (needle.empty()) continue;
    const std::boyer_moore_horspool_searcher searcher(needle.begin(), needle.end());
    for (auto it = bytes.begin();;) {
      it = std::search(it, bytes.end(), searcher);
      if (it == bytes.end()) break;
      const auto off = static_cast<std::size_t>(it - bytes.begin());
      hits.push_back({{off, pi}, patterns.patterns[pi].name});
      ++it;
    }
  }
  std::sort(hits.begin(), hits.end());
  std::vector<CopyAt> out;
  out.reserve(hits.size());
  for (auto& h : hits) out.push_back({h.first.first, std::move(h.second)});
  return out;
}

std::vector<CopyAt> as_copies(const std::vector<scan::MemoryMatch>& matches) {
  std::vector<CopyAt> out;
  out.reserve(matches.size());
  for (const auto& m : matches) out.push_back({m.phys_offset, m.part});
  return out;
}

std::string check_sweep(const std::vector<scan::MemoryMatch>& matches,
                        const std::vector<CopyAt>& reference,
                        const std::vector<CopyAt>& planted,
                        const sim::Kernel& kernel) {
  const auto got = as_copies(matches);
  const std::set<std::pair<std::size_t, std::string>> found = [&] {
    std::set<std::pair<std::size_t, std::string>> s;
    for (const auto& c : got) s.insert({c.offset, c.part});
    return s;
  }();
  for (const auto& p : planted) {
    if (found.count({p.offset, p.part}) == 0) {
      return "planted copy " + describe(p) + " missed";
    }
  }
  if (got != reference) {
    return "sweep found " + std::to_string(got.size()) +
           " copies, reference search " + std::to_string(reference.size());
  }
  for (const auto& m : matches) {
    if (m.state != kernel.allocator().state(m.frame)) {
      return "copy " + describe({m.phys_offset, m.part}) +
             " reported in the wrong frame state";
    }
  }
  return {};
}

std::string check_single_locked_copy(const std::vector<scan::MemoryMatch>& matches,
                                     const sim::Kernel& kernel) {
  std::map<std::string, std::size_t> per_part;
  std::set<sim::FrameNumber> frames;
  for (const auto& m : matches) {
    ++per_part[m.part];
    frames.insert(m.frame);
    if (!m.allocated()) return "copy " + describe({m.phys_offset, m.part}) + " in a free frame";
  }
  if (per_part.count("PEM") != 0) return "PEM copy found";
  for (const char* part : {"d", "P", "Q"}) {
    if (per_part[part] != 1) {
      return std::string(part) + " found " + std::to_string(per_part[part]) + " times";
    }
  }
  if (frames.size() != 1) return "copies spread over " + std::to_string(frames.size()) + " frames";
  if (!kernel.frame_mlocked(*frames.begin())) return "key frame not mlocked";
  return {};
}

std::string check_signature(const crypto::RsaPublicKey& pub, const bn::Bignum& m,
                            const bn::Bignum& s) {
  if (bn::Bignum::mod_exp(s, pub.e, pub.n) != m) return "signature does not verify";
  return {};
}

std::string check_same_sweep(const std::vector<scan::MemoryMatch>& got,
                             const std::vector<scan::MemoryMatch>& want) {
  if (got.size() != want.size()) {
    return std::to_string(got.size()) + " copies vs " + std::to_string(want.size());
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    const auto& a = got[i];
    const auto& b = want[i];
    if (a.phys_offset != b.phys_offset || a.part != b.part || a.state != b.state ||
        a.owners != b.owners) {
      return "copy " + std::to_string(i) + " differs (" + describe({a.phys_offset, a.part}) +
             " vs " + describe({b.phys_offset, b.part}) + ")";
    }
  }
  return {};
}

}  // namespace keyguard::perfbench
