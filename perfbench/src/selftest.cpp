// Tests of the benchmark's own code: the percentile routine, the timing
// proxies (a traced run must leave the machine exactly as an untraced one)
// and a negative control for every correctness check.
//
//   python3 perfbench/run.py --selftest
#include <cstdio>
#include <string>

#include "checks.hpp"
#include "servers/ssh_server.hpp"
#include "workloads.hpp"

namespace pb = keyguard::perfbench;
using namespace keyguard;

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

void test_percentile() {
  // Nearest rank over {15, 20, 35, 40, 50}: rank = ceil(p/100 * 5).
  const std::vector<double> v = {40, 15, 50, 35, 20};
  expect(pb::percentile(v, 1) == 15, "percentile p1 is the minimum");
  expect(pb::percentile(v, 30) == 20, "percentile p30 = 2nd of 5");
  expect(pb::percentile(v, 40) == 20, "percentile p40 = 2nd of 5");
  expect(pb::percentile(v, 50) == 35, "percentile p50 = 3rd of 5");
  expect(pb::percentile(v, 99) == 50, "percentile p99 = 5th of 5");
  expect(pb::percentile(v, 100) == 50, "percentile p100 is the maximum");
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  expect(pb::percentile(hundred, 50) == 50 && pb::percentile(hundred, 99) == 99,
         "percentile of 1..100: p50 = 50, p99 = 99");
  expect(pb::percentile({}, 50) == 0, "percentile of an empty sample is 0");
  // Blocks of 4: {1,2,3,100} {5,6,7,8} ... {29,30,31,32} and a partial
  // {33}; block p75s are 3, 7, 11, ..., 31, their lower quartile (rank
  // ceil(0.25 * 8) = 2) is 7. The whole-sample p75 (rank 25 of 33) is 26.
  std::vector<double> runs;
  for (int v = 1; v <= 33; ++v) runs.push_back(v == 4 ? 100 : v);
  expect(pb::percentile(runs, 75) == 26, "whole-sample p75 of the block set is 26");
  expect(pb::block_percentile(runs, 4, 75) == 7,
         "block p75 is the lower quartile of per-block p75s");
  expect(pb::block_percentile(runs, 1, 99) == 10,
         "one-sample blocks give the lower quartile of the samples");
  expect(pb::block_percentile(runs, 40, 75) == pb::percentile(runs, 75),
         "block percentile without a full block is the whole-sample percentile");
}

struct AuditedEnd {
  scan::Census census;
  std::vector<pb::CopyAt> copies;
  std::string failure;
};

AuditedEnd run_audited(bool traced, std::size_t ops) {
  pb::Ledger ledger(traced);
  pb::AuditedSsh w(/*seed=*/7, ledger);
  w.setup();
  ledger.start_recording();
  for (std::size_t i = 0; i < ops; ++i) w.op(i);
  AuditedEnd end;
  end.failure = w.verify();
  end.census = w.final_census();
  end.copies = w.monitor_copies();
  return end;
}

void test_proxies_leave_state_unchanged() {
  // Covers two incremental sweeps (kSweepEvery = 200).
  const auto plain = run_audited(false, 450);
  const auto traced = run_audited(true, 450);
  expect(plain.failure.empty() && traced.failure.empty(), "audited_ssh checks hold");
  expect(plain.census.allocated == traced.census.allocated &&
             plain.census.unallocated == traced.census.unallocated,
         "traced and untraced audited_ssh end with the same census (" +
             std::to_string(plain.census.total()) + " copies)");
  expect(!plain.copies.empty() && plain.copies == traced.copies,
         "traced and untraced audited_ssh end with the same ExposureMonitor copy set");
}

void test_sweep_check_controls() {
  core::ScenarioConfig cfg;
  cfg.mem_bytes = 8ull << 20;
  cfg.seed = 11;
  core::Scenario s(cfg);
  servers::SshServer server(s.kernel(), s.ssh_config(), s.make_rng());
  server.start();
  for (int c = 0; c < 6; ++c) server.handle_connection(4096);
  const auto live = server.open_connection();
  const auto matches = s.scanner().scan_kernel(s.kernel());
  const auto reference = pb::reference_search(s.kernel().memory().all(), s.scanner().patterns());
  expect(matches.size() > 4 && live.has_value(), "stock machine holds key copies");

  const std::vector<pb::CopyAt> planted = {pb::as_copies(matches).front()};
  expect(pb::check_sweep(matches, reference, planted, s.kernel()).empty(),
         "sweep check passes on a true sweep");
  auto extra = planted;
  extra.push_back({matches.back().phys_offset + 1, "d"});
  const auto missed = pb::check_sweep(matches, reference, extra, s.kernel());
  expect(missed.find("missed") != std::string::npos,
         "an extra planted copy is reported as missed: " + missed);
  auto short_reference = reference;
  short_reference.pop_back();
  expect(!pb::check_sweep(matches, short_reference, planted, s.kernel()).empty(),
         "a sweep that disagrees with the reference search is rejected");
  auto wrong_state = matches;
  wrong_state.front().state = wrong_state.front().allocated() ? sim::FrameState::kFree
                                                               : sim::FrameState::kUserAnon;
  expect(!pb::check_sweep(wrong_state, reference, planted, s.kernel()).empty(),
         "a copy reported in the wrong frame state is rejected");

  expect(pb::check_same_sweep(matches, matches).empty(), "a sweep equals itself");
  expect(!pb::check_same_sweep(wrong_state, matches).empty(),
         "two sweeps that differ in one frame state are told apart");
  expect(!pb::check_single_locked_copy(matches, s.kernel()).empty(),
         "the stock machine fails the single-locked-copy property");
}

void test_single_locked_copy_control() {
  core::ScenarioConfig cfg;
  cfg.level = core::ProtectionLevel::kIntegrated;
  cfg.mem_bytes = 8ull << 20;
  cfg.seed = 12;
  core::Scenario s(cfg);
  servers::SshServer server(s.kernel(), s.ssh_config(), s.make_rng());
  server.start();
  for (int c = 0; c < 6; ++c) server.handle_connection(4096);
  (void)server.open_connection();
  auto matches = s.scanner().scan_kernel(s.kernel());
  expect(pb::check_single_locked_copy(matches, s.kernel()).empty(),
         "the integrated defense holds the single-locked-copy property");
  matches.push_back(matches.front());
  expect(!pb::check_single_locked_copy(matches, s.kernel()).empty(),
         "a second copy of d breaks the single-locked-copy property");
}

void test_signature_control() {
  util::Rng rng(13);
  const auto key = crypto::generate_rsa_key(rng, 512);
  const auto m = pb::random_below_modulus(rng, key.public_key());
  const auto s = key.decrypt_crt(m);
  expect(pb::check_signature(key.public_key(), m, s).empty(), "a true signature verifies");
  auto bytes = s.to_bytes_be();
  bytes[bytes.size() / 2] ^= std::byte{0x01};
  const auto flipped = bn::Bignum::from_bytes_be(bytes);
  expect(!pb::check_signature(key.public_key(), m, flipped).empty(),
         "a signature with one flipped byte is rejected");
}

}  // namespace

int main() {
  test_percentile();
  test_signature_control();
  test_sweep_check_controls();
  test_single_locked_copy_control();
  test_proxies_leave_state_unchanged();
  std::printf("%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
