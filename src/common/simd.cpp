#include "common/simd.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

#include "common/error.h"

#if defined(__x86_64__) && defined(__GNUC__)
#define ICE_SIMD_X86 1
#include <immintrin.h>
#endif

namespace ice::simd {

namespace {

// ---------------------------------------------------------------- portable

// Unrolled by four so the independent u64 ALU ops pipeline even when the
// compiler's cost model declines to auto-vectorize a runtime trip count.
void xor_row_portable(std::uint64_t* dst, const std::uint64_t* src,
                      std::size_t w) {
  std::size_t j = 0;
  for (; j + 4 <= w; j += 4) {
    dst[j] ^= src[j];
    dst[j + 1] ^= src[j + 1];
    dst[j + 2] ^= src[j + 2];
    dst[j + 3] ^= src[j + 3];
  }
  for (; j < w; ++j) dst[j] ^= src[j];
}

void xor_scatter_portable(std::uint64_t* acc, const std::uint64_t* rows,
                          std::size_t w, const std::uint64_t* entries,
                          std::size_t count) {
  if (w == 16) {
    // K = 1024 fast path, run-detecting: the run extent is scanned first so
    // the fold loop has a known trip count (which keeps the local
    // accumulator in registers), then a run of entries sharing a
    // destination XORs together before the single writeback — the
    // destination's load/store round-trip is paid once per run instead of
    // once per entry, dodging the store-forward chain that dominates plain
    // read-modify-write scatter. Singleton runs skip the local accumulator
    // entirely. Arbitrary entry orderings remain correct (worst case every
    // run has length one and this is the plain scatter).
    std::size_t e = 0;
    while (e < count) {
      const std::uint32_t d = static_cast<std::uint32_t>(entries[e]);
      std::size_t f = e + 1;
      while (f < count && static_cast<std::uint32_t>(entries[f]) == d) ++f;
      std::uint64_t* const dst = acc + d;
      if (f == e + 1) {
        const std::uint64_t* const src = rows + (entries[e] >> 32);
        for (std::size_t j = 0; j < 16; ++j) dst[j] ^= src[j];
      } else {
        std::uint64_t a[16];
        for (std::size_t j = 0; j < 16; ++j) a[j] = dst[j];
        for (std::size_t x = e; x < f; ++x) {
          const std::uint64_t* const src = rows + (entries[x] >> 32);
          for (std::size_t j = 0; j < 16; ++j) a[j] ^= src[j];
        }
        for (std::size_t j = 0; j < 16; ++j) dst[j] = a[j];
      }
      e = f;
    }
    return;
  }
  for (std::size_t e = 0; e < count; ++e) {
    std::uint64_t* const dst = acc + static_cast<std::uint32_t>(entries[e]);
    const std::uint64_t* const src = rows + (entries[e] >> 32);
    for (std::size_t j = 0; j < w; ++j) dst[j] ^= src[j];
  }
}

void xor_scatter_single_portable(std::uint64_t* acc,
                                 const std::uint64_t* rows, std::size_t w,
                                 const std::uint64_t* entries,
                                 std::size_t count) {
  if (w == 16) {
    // K = 1024 fast path: a fixed trip count lets the compiler fully
    // unroll/vectorize the row XOR with the baseline ISA.
    for (std::size_t e = 0; e < count; ++e) {
      std::uint64_t* const dst = acc + static_cast<std::uint32_t>(entries[e]);
      const std::uint64_t* const src = rows + (entries[e] >> 32);
      for (std::size_t j = 0; j < 16; ++j) dst[j] ^= src[j];
    }
    return;
  }
  for (std::size_t e = 0; e < count; ++e) {
    std::uint64_t* const dst = acc + static_cast<std::uint32_t>(entries[e]);
    const std::uint64_t* const src = rows + (entries[e] >> 32);
    for (std::size_t j = 0; j < w; ++j) dst[j] ^= src[j];
  }
}

// Spreads bit i of a byte into byte i of a word — the building block of the
// portable plane-pair expansion (eight elements per table lookup pair).
constexpr std::array<std::uint64_t, 256> make_spread_table() {
  std::array<std::uint64_t, 256> t{};
  for (std::size_t b = 0; b < 256; ++b) {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>((b >> i) & 1u) << (8 * i);
    }
    t[b] = v;
  }
  return t;
}
constexpr std::array<std::uint64_t, 256> kSpread = make_spread_table();

void spread_pair_portable(const std::uint64_t* lo, const std::uint64_t* hi,
                          std::size_t k, std::uint8_t* out) {
  std::size_t base = 0;
  for (std::size_t word = 0; base < k; ++word) {
    const std::uint64_t l = lo[word];
    const std::uint64_t h = hi[word];
    for (int g = 0; g < 8 && base < k; ++g) {
      const std::uint64_t bytes = kSpread[(l >> (8 * g)) & 0xFF] |
                                  (kSpread[(h >> (8 * g)) & 0xFF] << 1);
      const std::size_t take = std::min<std::size_t>(8, k - base);
      if (std::endian::native == std::endian::little && take == 8) {
        std::memcpy(out + base, &bytes, 8);
      } else {
        for (std::size_t i = 0; i < take; ++i) {
          out[base + i] = static_cast<std::uint8_t>((bytes >> (8 * i)) & 0x3);
        }
      }
      base += take;
    }
  }
}

#if defined(ICE_SIMD_X86)

// ------------------------------------------------------------------- AVX2

__attribute__((target("avx2"))) void xor_row_avx2(std::uint64_t* dst,
                                                  const std::uint64_t* src,
                                                  std::size_t w) {
  std::size_t j = 0;
  for (; j + 4 <= w; j += 4) {
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + j));
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + j));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + j),
                        _mm256_xor_si256(d, s));
  }
  for (; j < w; ++j) dst[j] ^= src[j];
}

__attribute__((target("avx2"))) void xor_scatter_avx2(
    std::uint64_t* acc, const std::uint64_t* rows, std::size_t w,
    const std::uint64_t* entries, std::size_t count) {
  if (w == 16) {
    // K = 1024 fast path, run-detecting (see the portable kernel for the
    // run rationale): a run holds the destination in four ymm accumulators
    // across all of its row XORs.
    std::size_t e = 0;
    while (e < count) {
      const std::uint32_t d = static_cast<std::uint32_t>(entries[e]);
      std::size_t f = e + 1;
      while (f < count && static_cast<std::uint32_t>(entries[f]) == d) ++f;
      std::uint64_t* const dst = acc + d;
      if (f == e + 1) {
        const std::uint64_t* const src = rows + (entries[e] >> 32);
        for (int j = 0; j < 4; ++j) {
          const __m256i s = _mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(src + 4 * j));
          __m256i* const dj = reinterpret_cast<__m256i*>(dst + 4 * j);
          _mm256_storeu_si256(dj,
                              _mm256_xor_si256(_mm256_loadu_si256(dj), s));
        }
      } else {
        __m256i a0 =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst));
        __m256i a1 =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + 4));
        __m256i a2 =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + 8));
        __m256i a3 =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + 12));
        for (std::size_t x = e; x < f; ++x) {
          const std::uint64_t* const src = rows + (entries[x] >> 32);
          a0 = _mm256_xor_si256(
              a0, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src)));
          a1 = _mm256_xor_si256(
              a1,
              _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + 4)));
          a2 = _mm256_xor_si256(
              a2,
              _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + 8)));
          a3 = _mm256_xor_si256(
              a3, _mm256_loadu_si256(
                      reinterpret_cast<const __m256i*>(src + 12)));
        }
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst), a0);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + 4), a1);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + 8), a2);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + 12), a3);
      }
      e = f;
    }
    return;
  }
  for (std::size_t e = 0; e < count; ++e) {
    std::uint64_t* const dst = acc + static_cast<std::uint32_t>(entries[e]);
    const std::uint64_t* const src = rows + (entries[e] >> 32);
    std::size_t j = 0;
    for (; j + 4 <= w; j += 4) {
      const __m256i s =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + j));
      __m256i* const d = reinterpret_cast<__m256i*>(dst + j);
      _mm256_storeu_si256(d, _mm256_xor_si256(_mm256_loadu_si256(d), s));
    }
    for (; j < w; ++j) dst[j] ^= src[j];
  }
}

__attribute__((target("avx2"))) void xor_scatter_single_avx2(
    std::uint64_t* acc, const std::uint64_t* rows, std::size_t w,
    const std::uint64_t* entries, std::size_t count) {
  if (w == 16) {
    // K = 1024 fast path: one entry is four ymm load/xor/store triples.
    for (std::size_t e = 0; e < count; ++e) {
      std::uint64_t* const dst = acc + static_cast<std::uint32_t>(entries[e]);
      const std::uint64_t* const src = rows + (entries[e] >> 32);
      for (int j = 0; j < 4; ++j) {
        const __m256i s = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(src + 4 * j));
        __m256i* const d = reinterpret_cast<__m256i*>(dst + 4 * j);
        _mm256_storeu_si256(d, _mm256_xor_si256(_mm256_loadu_si256(d), s));
      }
    }
    return;
  }
  xor_scatter_avx2(acc, rows, w, entries, count);
}

__attribute__((target("avx2"))) void spread_pair_avx2(
    const std::uint64_t* lo, const std::uint64_t* hi, std::size_t k,
    std::uint8_t* out) {
  // 32 elements per step: broadcast the 32-bit plane chunk, shuffle each
  // byte lane onto the source byte holding its bit, isolate the lane's bit
  // and compare-to-mask into a 0/1 byte (0/2 for the hi plane).
  const __m256i shuf = _mm256_setr_epi8(
      0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2,
      3, 3, 3, 3, 3, 3, 3, 3);
  const __m256i bits = _mm256_setr_epi8(
      1, 2, 4, 8, 16, 32, 64, -128, 1, 2, 4, 8, 16, 32, 64, -128, 1, 2, 4, 8,
      16, 32, 64, -128, 1, 2, 4, 8, 16, 32, 64, -128);
  std::size_t base = 0;
  while (base + 32 <= k) {
    const std::size_t word = base / 64;
    const int half = static_cast<int>((base / 32) % 2);
    const std::uint32_t l32 =
        static_cast<std::uint32_t>(lo[word] >> (32 * half));
    const std::uint32_t h32 =
        static_cast<std::uint32_t>(hi[word] >> (32 * half));
    const __m256i vl = _mm256_shuffle_epi8(
        _mm256_set1_epi32(static_cast<int>(l32)), shuf);
    const __m256i vh = _mm256_shuffle_epi8(
        _mm256_set1_epi32(static_cast<int>(h32)), shuf);
    const __m256i bl = _mm256_and_si256(
        _mm256_cmpeq_epi8(_mm256_and_si256(vl, bits), bits),
        _mm256_set1_epi8(1));
    const __m256i bh = _mm256_and_si256(
        _mm256_cmpeq_epi8(_mm256_and_si256(vh, bits), bits),
        _mm256_set1_epi8(2));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + base),
                        _mm256_or_si256(bl, bh));
    base += 32;
  }
  for (; base < k; ++base) {
    const std::size_t word = base / 64;
    const int bit = static_cast<int>(base % 64);
    out[base] = static_cast<std::uint8_t>(((lo[word] >> bit) & 1u) |
                                          (((hi[word] >> bit) & 1u) << 1));
  }
}

// ---------------------------------------------------------------- AVX-512

__attribute__((target("avx512f"))) void xor_row_avx512(
    std::uint64_t* dst, const std::uint64_t* src, std::size_t w) {
  std::size_t j = 0;
  for (; j + 8 <= w; j += 8) {
    const __m512i s = _mm512_loadu_si512(src + j);
    const __m512i d = _mm512_loadu_si512(dst + j);
    _mm512_storeu_si512(dst + j, _mm512_xor_si512(d, s));
  }
  if (j < w) {
    const __mmask8 k = static_cast<__mmask8>((1u << (w - j)) - 1u);
    const __m512i s = _mm512_maskz_loadu_epi64(k, src + j);
    const __m512i d = _mm512_maskz_loadu_epi64(k, dst + j);
    _mm512_mask_storeu_epi64(dst + j, k, _mm512_xor_si512(d, s));
  }
}

__attribute__((target("avx512f"))) void xor_scatter_avx512(
    std::uint64_t* acc, const std::uint64_t* rows, std::size_t w,
    const std::uint64_t* entries, std::size_t count) {
  if (w == 16) {
    // K = 1024 fast path, run-detecting (see the portable kernel for the
    // run rationale): a run holds the destination in two zmm accumulators
    // across all of its row XORs.
    std::size_t e = 0;
    while (e < count) {
      const std::uint32_t d = static_cast<std::uint32_t>(entries[e]);
      std::size_t f = e + 1;
      while (f < count && static_cast<std::uint32_t>(entries[f]) == d) ++f;
      std::uint64_t* const dst = acc + d;
      if (f == e + 1) {
        const std::uint64_t* const src = rows + (entries[e] >> 32);
        _mm512_storeu_si512(dst,
                            _mm512_xor_si512(_mm512_loadu_si512(dst),
                                             _mm512_loadu_si512(src)));
        _mm512_storeu_si512(dst + 8,
                            _mm512_xor_si512(_mm512_loadu_si512(dst + 8),
                                             _mm512_loadu_si512(src + 8)));
      } else {
        __m512i a0 = _mm512_loadu_si512(dst);
        __m512i a1 = _mm512_loadu_si512(dst + 8);
        for (std::size_t x = e; x < f; ++x) {
          const std::uint64_t* const src = rows + (entries[x] >> 32);
          a0 = _mm512_xor_si512(a0, _mm512_loadu_si512(src));
          a1 = _mm512_xor_si512(a1, _mm512_loadu_si512(src + 8));
        }
        _mm512_storeu_si512(dst, a0);
        _mm512_storeu_si512(dst + 8, a1);
      }
      e = f;
    }
    return;
  }
  for (std::size_t e = 0; e < count; ++e) {
    std::uint64_t* const dst = acc + static_cast<std::uint32_t>(entries[e]);
    const std::uint64_t* const src = rows + (entries[e] >> 32);
    std::size_t j = 0;
    for (; j + 8 <= w; j += 8) {
      const __m512i s = _mm512_loadu_si512(src + j);
      const __m512i d = _mm512_loadu_si512(dst + j);
      _mm512_storeu_si512(dst + j, _mm512_xor_si512(d, s));
    }
    if (j < w) {
      const __mmask8 k = static_cast<__mmask8>((1u << (w - j)) - 1u);
      const __m512i s = _mm512_maskz_loadu_epi64(k, src + j);
      const __m512i d = _mm512_maskz_loadu_epi64(k, dst + j);
      _mm512_mask_storeu_epi64(dst + j, k, _mm512_xor_si512(d, s));
    }
  }
}

__attribute__((target("avx512f"))) void xor_scatter_single_avx512(
    std::uint64_t* acc, const std::uint64_t* rows, std::size_t w,
    const std::uint64_t* entries, std::size_t count) {
  if (w == 16) {
    // K = 1024 fast path: one entry is two zmm load/xor/store triples.
    for (std::size_t e = 0; e < count; ++e) {
      std::uint64_t* const dst = acc + static_cast<std::uint32_t>(entries[e]);
      const std::uint64_t* const src = rows + (entries[e] >> 32);
      _mm512_storeu_si512(dst, _mm512_xor_si512(_mm512_loadu_si512(dst),
                                                _mm512_loadu_si512(src)));
      _mm512_storeu_si512(
          dst + 8, _mm512_xor_si512(_mm512_loadu_si512(dst + 8),
                                    _mm512_loadu_si512(src + 8)));
    }
    return;
  }
  xor_scatter_avx512(acc, rows, w, entries, count);
}

// AVX-512BW: a plane word IS a byte mask — one masked broadcast per plane
// expands 64 bits to 64 one-byte elements.
__attribute__((target("avx512f,avx512bw"))) void spread_pair_avx512(
    const std::uint64_t* lo, const std::uint64_t* hi, std::size_t k,
    std::uint8_t* out) {
  const __m512i one = _mm512_set1_epi8(1);
  const __m512i two = _mm512_set1_epi8(2);
  std::size_t base = 0;
  std::size_t word = 0;
  for (; base + 64 <= k; base += 64, ++word) {
    const __m512i vl =
        _mm512_maskz_mov_epi8(static_cast<__mmask64>(lo[word]), one);
    const __m512i vh =
        _mm512_maskz_mov_epi8(static_cast<__mmask64>(hi[word]), two);
    _mm512_storeu_si512(out + base, _mm512_or_si512(vl, vh));
  }
  if (base < k) {
    const __mmask64 tail =
        (static_cast<__mmask64>(1) << (k - base)) - 1;  // k - base < 64
    const __m512i vl =
        _mm512_maskz_mov_epi8(static_cast<__mmask64>(lo[word]), one);
    const __m512i vh =
        _mm512_maskz_mov_epi8(static_cast<__mmask64>(hi[word]), two);
    _mm512_mask_storeu_epi8(out + base, tail, _mm512_or_si512(vl, vh));
  }
}

#endif  // ICE_SIMD_X86

constexpr XorKernels kPortableKernels = {
    xor_row_portable, xor_scatter_portable, xor_scatter_single_portable,
    spread_pair_portable, XorTier::kPortable, "portable"};
#if defined(ICE_SIMD_X86)
constexpr XorKernels kAvx2Kernels = {
    xor_row_avx2, xor_scatter_avx2, xor_scatter_single_avx2,
    spread_pair_avx2, XorTier::kAvx2, "avx2"};
constexpr XorKernels kAvx512Kernels = {
    xor_row_avx512, xor_scatter_avx512, xor_scatter_single_avx512,
    spread_pair_avx512, XorTier::kAvx512, "avx512"};
#endif

XorTier probe_best_tier() {
#if defined(ICE_SIMD_X86)
  // BW is required for the byte-mask plane expansion; every AVX-512 server
  // part since Skylake-SP ships F and BW together.
  if (__builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512bw")) {
    return XorTier::kAvx512;
  }
  if (__builtin_cpu_supports("avx2")) return XorTier::kAvx2;
#endif
  return XorTier::kPortable;
}

}  // namespace

XorTier best_supported_tier() {
  static const XorTier tier = probe_best_tier();
  return tier;
}

bool tier_supported(XorTier tier) {
  return static_cast<int>(tier) <= static_cast<int>(best_supported_tier());
}

const XorKernels& kernels_for(XorTier tier) {
  if (!tier_supported(tier)) {
    throw ParamError("simd::kernels_for: tier not supported by this CPU");
  }
  switch (tier) {
    case XorTier::kPortable:
      return kPortableKernels;
#if defined(ICE_SIMD_X86)
    case XorTier::kAvx2:
      return kAvx2Kernels;
    case XorTier::kAvx512:
      return kAvx512Kernels;
#else
    default:
      break;
#endif
  }
  throw ParamError("simd::kernels_for: unknown tier");
}

const char* tier_name(XorTier tier) {
  switch (tier) {
    case XorTier::kPortable:
      return "portable";
    case XorTier::kAvx2:
      return "avx2";
    case XorTier::kAvx512:
      return "avx512";
  }
  return "?";
}

}  // namespace ice::simd
