#include <stdexcept>

#include "core/secure_rsa.hpp"
#include "crypto/pem.hpp"
#include "keystore/sealed_blob.hpp"
#include "workloads.hpp"

namespace keyguard::perfbench {

KeystoreSign::KeystoreSign(std::uint64_t seed, Ledger& ledger)
    : seed_(seed), ledger_(ledger), rng_(seed ^ 0x6b657973746f7265ULL) {}

void KeystoreSign::setup() {
  util::Rng keygen(seed_ * 0x9e3779b97f4a7c15ULL + 0x6b6579ULL);
  for (std::size_t t = 0; t < kTenants; ++t) {
    keys_.push_back(crypto::generate_rsa_key(keygen, kKeyBits));
  }
  keystore::HostKeystoreConfig cfg;
  cfg.pool_keys = kPoolKeys;
  cfg.master_seed = seed_ ^ 0x6d6173746572ULL;
  store_ = std::make_unique<keystore::Keystore>(cfg);
  for (const auto& key : keys_) ids_.push_back(store_->add_key(key));

  for (std::size_t i = 0; i < kWarmupOps; ++i) {
    sign_one();
    if (!check_last()) throw std::runtime_error("warm-up sign failed: " + failure_);
  }
  misses_at_start_ = counted_misses_;
}

void KeystoreSign::sign_one() {
  // The traffic model of bench/bench_keystore_scale.cpp: kHotShare of
  // the signs go to the hot fifth of the tenants, the rest roam over all.
  last_tenant_ = rng_.next_double() < kHotShare ? rng_.next_below(kHotTenants)
                                                : rng_.next_below(kTenants);
  const keystore::KeyId id = ids_[last_tenant_];
  last_message_ = random_below_modulus(rng_, keys_[last_tenant_].public_key());
  const bool hit = store_->pooled(id);
  if (!hit) ++counted_misses_;
  auto span = ledger_.span(hit ? "keystore.hit" : "keystore.miss");
  last_signature_ = store_->sign(id, last_message_);
}

bool KeystoreSign::check_last() {
  const std::string failure =
      store_->pooled_count() > store_->pool_keys()
          ? "pool holds more plaintext keys than its bound"
          : check_signature(keys_[last_tenant_].public_key(), last_message_, last_signature_);
  if (failure.empty()) return true;
  if (failure_.empty()) failure_ = failure;  // the first failure is the one reported
  return false;
}

bool KeystoreSign::op(std::size_t /*i*/) {
  sign_one();
  return true;
}

bool KeystoreSign::check_op() { return check_last(); }

void KeystoreSign::stats_window_end() { window_misses_ = counted_misses_ - misses_at_start_; }

std::string KeystoreSign::verify() {
  if (!failure_.empty()) return failure_;
  const auto stats = store_->stats();
  if (stats.pool_misses != counted_misses_) {
    return "counted " + std::to_string(counted_misses_) + " misses, keystore reports " +
           std::to_string(stats.pool_misses);
  }
  return {};
}

std::vector<Metric> KeystoreSign::layer_metrics(std::size_t /*timed_ops*/) {
  const auto& key = keys_.front();
  std::vector<Metric> out = probe_bignum(ledger_, key, seed_);

  // The custody steps of a pool miss, one at a time, on the first tenant.
  util::Rng rng(seed_ ^ 0x637573746f6479ULL);
  std::vector<std::byte> master(keystore::kMasterKeyBytes);
  rng.fill_bytes(master);
  auto der = crypto::der_encode_private_key(key);
  const auto blob = keystore::seal(der, master, /*nonce=*/1);
  for (std::size_t k = 0; k < kProbeOps; ++k) {
    std::optional<std::vector<std::byte>> plain;
    {
      auto span = ledger_.span("keystore.unseal");
      plain = keystore::unseal(blob, master);
    }
    if (!plain || *plain != der) throw std::runtime_error("unseal returned the wrong DER");
    keystore::wipe(*plain);
  }
  for (std::size_t k = 0; k < kProbeOps; ++k) {
    std::optional<crypto::RsaPrivateKey> parsed;
    {
      auto span = ledger_.span("crypto.der_decode");
      parsed = crypto::der_decode_private_key(der);
    }
    if (!parsed || parsed->d != key.d) throw std::runtime_error("DER decode mismatch");
  }
  keystore::wipe(der);
  for (std::size_t k = 0; k < kProbeOps; ++k) {
    auto span = ledger_.span("core.secure_key_build");
    (void)secure::SecureRsaKey::from_key(key);
  }
  const auto secure_key = secure::SecureRsaKey::from_key(key);
  for (std::size_t k = 0; k < kProbeOps; ++k) {
    const auto m = random_below_modulus(rng, key.public_key());
    bn::Bignum s;
    {
      auto span = ledger_.span("core.secure_sign");
      s = secure_key.sign(m);
    }
    if (!check_signature(key.public_key(), m, s).empty()) {
      throw std::runtime_error("SecureRsaKey signature does not verify");
    }
  }
  out.insert(out.end(),
             {{"keystore.hit_us", ledger_.median_us("keystore.hit"), "us"},
              {"keystore.miss_us", ledger_.median_us("keystore.miss"), "us"},
              {"keystore.hit_ratio",
               1.0 - static_cast<double>(window_misses_) / static_cast<double>(kStatsWindowOps),
               "ratio"},
              {"keystore.unseal_us", ledger_.median_us("keystore.unseal"), "us"},
              {"crypto.der_decode_us", ledger_.median_us("crypto.der_decode"), "us"},
              {"core.secure_key_build_us", ledger_.median_us("core.secure_key_build"), "us"},
              {"core.secure_sign_us", ledger_.median_us("core.secure_sign"), "us"}});
  return out;
}

}  // namespace keyguard::perfbench
