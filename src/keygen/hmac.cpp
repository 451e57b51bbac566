#include "keygen/hmac.hpp"

#include <algorithm>
#include <array>

#include "common/check.hpp"

namespace aropuf {

HmacSha256::HmacSha256(std::span<const std::uint8_t> key) {
  std::array<std::uint8_t, Sha256::kBlockBytes> padded{};
  if (key.size() > padded.size()) {
    const Sha256::Digest hashed = Sha256::hash(key);
    std::copy(hashed.begin(), hashed.end(), padded.begin());
  } else {
    std::copy(key.begin(), key.end(), padded.begin());
  }

  std::array<std::uint8_t, Sha256::kBlockBytes> ipad{};
  std::array<std::uint8_t, Sha256::kBlockBytes> opad{};
  for (std::size_t i = 0; i < padded.size(); ++i) {
    ipad[i] = static_cast<std::uint8_t>(padded[i] ^ 0x36);
    opad[i] = static_cast<std::uint8_t>(padded[i] ^ 0x5c);
  }
  inner_.update(ipad);
  outer_.update(opad);
}

Sha256::Digest HmacSha256::mac(std::span<const std::uint8_t> message) const {
  Sha256 inner = inner_;
  inner.update(message);
  const Sha256::Digest inner_digest = inner.finish();

  Sha256 outer = outer_;
  outer.update(inner_digest);
  return outer.finish();
}

Sha256::Digest hmac_sha256(std::span<const std::uint8_t> key,
                           std::span<const std::uint8_t> message) {
  return HmacSha256(key).mac(message);
}

Sha256::Digest hkdf_extract(std::span<const std::uint8_t> salt,
                            std::span<const std::uint8_t> ikm) {
  // RFC 5869: PRK = HMAC(salt, IKM); empty salt means a zero-filled key.
  if (salt.empty()) {
    const std::array<std::uint8_t, Sha256::kDigestBytes> zeros{};
    return hmac_sha256(zeros, ikm);
  }
  return hmac_sha256(salt, ikm);
}

std::vector<std::uint8_t> hkdf_expand(const Sha256::Digest& prk,
                                      std::span<const std::uint8_t> info, std::size_t length) {
  ARO_REQUIRE(length >= 1, "must request at least one byte");
  ARO_REQUIRE(length <= 255 * Sha256::kDigestBytes, "HKDF output limited to 255 blocks");
  std::vector<std::uint8_t> okm;
  okm.reserve(length);
  const HmacSha256 keyed(prk);
  std::vector<std::uint8_t> t;  // T(i-1)
  std::uint8_t counter = 1;
  while (okm.size() < length) {
    std::vector<std::uint8_t> block = t;
    block.insert(block.end(), info.begin(), info.end());
    block.push_back(counter++);
    const Sha256::Digest digest = keyed.mac(block);
    t.assign(digest.begin(), digest.end());
    const std::size_t take = std::min(t.size(), length - okm.size());
    okm.insert(okm.end(), t.begin(), t.begin() + static_cast<std::ptrdiff_t>(take));
  }
  return okm;
}

std::vector<std::uint8_t> derive_subkey(const Sha256::Digest& root_key,
                                        std::string_view label, std::size_t length) {
  const Sha256::Digest prk = hkdf_extract({}, root_key);
  const std::span<const std::uint8_t> info{
      reinterpret_cast<const std::uint8_t*>(label.data()), label.size()};
  return hkdf_expand(prk, info, length);
}

}  // namespace aropuf
