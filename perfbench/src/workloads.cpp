#include "workloads.hpp"

namespace keyguard::perfbench {

namespace {

constexpr std::size_t kKeygenProbes = 8;
constexpr std::size_t kProbeKeyBits = 1024;

}  // namespace

bn::Bignum random_below_modulus(util::Rng& rng, const crypto::RsaPublicKey& pub) {
  std::vector<std::byte> bytes(pub.modulus_bytes() - 1);
  rng.fill_bytes(bytes);
  return bn::Bignum::from_bytes_be(bytes);
}

std::vector<Metric> probe_bignum(Ledger& ledger, const crypto::RsaPrivateKey& key,
                                 std::uint64_t seed) {
  util::Rng rng(seed ^ 0x70726f6265ULL);
  for (std::size_t k = 0; k < kProbeOps; ++k) {
    const auto c = random_below_modulus(rng, key.public_key());
    auto span = ledger.span("bignum.crt_op");
    (void)key.decrypt_crt(c);
  }
  for (std::size_t k = 0; k < kKeygenProbes; ++k) {
    auto span = ledger.span("bignum.keygen");
    (void)crypto::generate_rsa_key(rng, kProbeKeyBits);
  }
  return {{"bignum.crt_op_us", ledger.median_us("bignum.crt_op"), "us"},
          {"bignum.keygen_ms", ledger.median_us("bignum.keygen") / 1000.0, "ms"}};
}

std::unique_ptr<Workload> make_workload(std::string_view name, std::uint64_t seed,
                                        Ledger& ledger) {
  if (name == "ssh_scp") return std::make_unique<SshScp>(seed, ledger);
  if (name == "audited_ssh") return std::make_unique<AuditedSsh>(seed, ledger);
  if (name == "ram_sweep") return std::make_unique<RamSweep>(seed, ledger);
  if (name == "keystore_sign") return std::make_unique<KeystoreSign>(seed, ledger);
  return nullptr;
}

}  // namespace keyguard::perfbench
