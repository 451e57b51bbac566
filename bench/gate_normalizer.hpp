// The perf gate's normaliser: a frozen copy of the portable streaming SHA-256
// as the library shipped it before the SHA-NI path (one block per call,
// byte-by-byte padding).  scripts/perf_gate.py divides every gated
// bench_micro row by BM_GateNormalizer_1KiB, so this code must never change:
// a faster normaliser would move every ratio in bench/baseline.json.  The
// library's own Sha256 is timed as the ungated BM_Sha256_1KiB row.
#pragma once

#include <array>
#include <cstdint>
#include <span>

namespace aropuf::bench {

class GateNormalizerSha256 {
 public:
  using Digest = std::array<std::uint8_t, 32>;

  GateNormalizerSha256();

  void update(std::span<const std::uint8_t> data);

  [[nodiscard]] Digest finish();

  [[nodiscard]] static Digest hash(std::span<const std::uint8_t> data);

 private:
  void process_block(const std::uint8_t* block);

  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffered_ = 0;
  std::uint64_t total_bytes_ = 0;
  bool finished_ = false;
};

}  // namespace aropuf::bench
