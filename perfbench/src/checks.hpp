// Correctness checks of the benchmark's outputs. Each returns an empty
// string when the check holds and a description of the first violation
// otherwise, so the self-test can show that every check can fail.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "crypto/rsa.hpp"
#include "scan/key_scanner.hpp"
#include "sim/kernel.hpp"

namespace keyguard::perfbench {

/// A key copy at a physical byte offset, named by pattern.
struct CopyAt {
  std::size_t offset = 0;
  std::string part;
  friend bool operator==(const CopyAt&, const CopyAt&) = default;
};

/// The benchmark's own reference search: every occurrence of every
/// pattern in `bytes`, one std::search per needle, in (offset, pattern
/// order) order. Independent of the scanner's matchers.
std::vector<CopyAt> reference_search(std::span<const std::byte> bytes,
                                     const scan::KeyPatterns& patterns);

std::vector<CopyAt> as_copies(const std::vector<scan::MemoryMatch>& matches);

/// `matches` equals `reference` copy for copy; every match carries the
/// frame state the allocator reports; every planted copy is among them.
std::string check_sweep(const std::vector<scan::MemoryMatch>& matches,
                        const std::vector<CopyAt>& reference,
                        const std::vector<CopyAt>& planted,
                        const sim::Kernel& kernel);

/// The integrated-defense property: d, P and Q each found exactly once,
/// all in one mlocked allocated frame; no PEM copy; no copy in a free frame.
std::string check_single_locked_copy(const std::vector<scan::MemoryMatch>& matches,
                                     const sim::Kernel& kernel);

/// s^e mod n == m under the public key.
std::string check_signature(const crypto::RsaPublicKey& pub, const bn::Bignum& m,
                            const bn::Bignum& s);

/// Two sweeps agree on offset, pattern, frame state and owners.
std::string check_same_sweep(const std::vector<scan::MemoryMatch>& got,
                             const std::vector<scan::MemoryMatch>& want);

}  // namespace keyguard::perfbench
