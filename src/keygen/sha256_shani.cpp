// SHA-NI lane of the SHA-256 compression (see sha256.hpp).
//
// Compiled with -msha -msse4.1 whenever the compiler accepts both flags (and
// only this translation unit, so nothing else picks up the instructions).
// sha256_compress_shani() checks CPUID before handing the function out, so a
// binary built with this TU still runs, on the portable compression, on CPUs
// without SHA.  tests/keygen/sha256_test.cpp compares it with the portable
// compression on random states and blocks.
#include "keygen/sha256.hpp"

#if defined(__SHA__) && defined(__SSE4_1__)

#include <cpuid.h>
#include <immintrin.h>

namespace aropuf::detail {

namespace {

alignas(16) constexpr std::uint32_t kRoundConstants[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
    0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
    0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
    0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
    0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
    0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
    0xc67178f2};

/// Four rounds: adds the round constants to message words `w` (4 lanes) and
/// runs two sha256rnds2 steps on the (ABEF, CDGH) state halves.
inline void four_rounds(__m128i& abef, __m128i& cdgh, __m128i w, int group) {
  const __m128i wk = _mm_add_epi32(
      w, _mm_load_si128(reinterpret_cast<const __m128i*>(kRoundConstants + 4 * group)));
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
  abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
}

/// Message schedule for the next four words from the previous sixteen
/// (w0 oldest): W[t] = σ1(W[t-2]) + W[t-7] + σ0(W[t-15]) + W[t-16].
inline __m128i schedule(__m128i w0, __m128i w1, __m128i w2, __m128i w3) {
  const __m128i t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4));
  return _mm_sha256msg2_epu32(t, w3);
}

void compress_shani(Sha256State& state, const std::uint8_t* data, std::size_t blocks) noexcept {
  // Big-endian message words: reverse the bytes of each 32-bit lane.
  const __m128i byte_swap = _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);

  // The round instructions keep the state as ABEF and CDGH.
  const __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state.data()));
  const __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state.data() + 4));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; blocks > 0; --blocks, data += Sha256::kBlockBytes) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w[4];
    for (int g = 0; g < 4; ++g) {
      w[g] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * g)), byte_swap);
      four_rounds(abef, cdgh, w[g], g);
    }
    for (int g = 4; g < 16; ++g) {
      w[g & 3] = schedule(w[g & 3], w[(g + 1) & 3], w[(g + 2) & 3], w[(g + 3) & 3]);
      four_rounds(abef, cdgh, w[g & 3], g);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state.data()), _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state.data() + 4), _mm_alignr_epi8(dchg, feba, 8));
}

bool cpu_has_sha_ni() noexcept {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool ssse3 = (ecx & bit_SSSE3) != 0;
  const bool sse41 = (ecx & bit_SSE4_1) != 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool sha = (ebx & (1U << 29)) != 0;
  return sha && ssse3 && sse41;
}

}  // namespace

Sha256CompressFn sha256_compress_shani() noexcept {
  return cpu_has_sha_ni() ? &compress_shani : nullptr;
}

}  // namespace aropuf::detail

#else

namespace aropuf::detail {

// The compiler accepted the flags but does not target SHA-NI: portable
// compression only.
Sha256CompressFn sha256_compress_shani() noexcept { return nullptr; }

}  // namespace aropuf::detail

#endif
