#include "keygen/hmac.hpp"

#include <algorithm>
#include <array>

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

}  // namespace aropuf
