// Runtime-dispatched SIMD XOR row kernels for the PIR evaluation engine.
//
// The Woodruff–Yekhanin servers are pure XOR/scatter workloads: every hot
// loop XORs a K-bit tag row (packed in 64-bit words) into an accumulator
// plane. These kernels provide that operation in three tiers — portable
// u64, AVX2 (256-bit) and AVX-512 (512-bit). The CPU is probed once and
// pir::PirServer takes the best tier's bundle once, as bignum::Montgomery
// picks its kernel once per modulus; kernels_for() hands out any supported
// tier so tests and benches can pin every tier to the portable reference.
#pragma once

#include <cstddef>
#include <cstdint>

namespace ice::simd {

enum class XorTier : std::uint8_t { kPortable = 0, kAvx2 = 1, kAvx512 = 2 };

/// The kernel bundle for one tier. Rows are `w` little-endian 64-bit words;
/// source and destination ranges must not partially overlap.
struct XorKernels {
  /// dst[0..w) ^= src[0..w).
  void (*xor_row)(std::uint64_t* dst, const std::uint64_t* src,
                  std::size_t w);
  /// Sparse XOR scatter stream — the hot kernel of the fused batch sweep.
  /// Each entry packs two word offsets, dst | (src << 32), and requests
  ///   acc[dst .. dst + w) ^= rows[src .. src + w).
  /// The caller emits entries only for nonzero GF(4) coefficient
  /// components (a zero component would XOR nothing), which cuts the XOR
  /// work to the nonzero fraction on every tier. Entries with
  /// equal dst may repeat; XOR is commutative and exact, so entry order
  /// never changes the result. Implementations detect RUNS of consecutive
  /// entries sharing a dst and fold them in registers before one writeback,
  /// so callers that can group same-destination entries (the fused sweep's
  /// component-major sections) skip most of the accumulator's per-entry
  /// load/store round-trips; any ordering remains correct, all-singleton
  /// streams simply degrade to the plain scatter. One indirect call per
  /// (point, block, section).
  void (*xor_scatter)(std::uint64_t* acc, const std::uint64_t* rows,
                      std::size_t w, const std::uint64_t* entries,
                      std::size_t count);
  /// Same contract as xor_scatter, tuned for streams where same-dst runs
  /// are rare (every entry pays the accumulator round-trip anyway, so the
  /// run scan is pure overhead): plain per-entry read-xor-write, no run
  /// detection. The two are interchangeable for correctness; callers pick
  /// by the stream shape they emit (the fused sweep uses this one for the
  /// third-derivative sections, whose destinations almost never repeat
  /// consecutively).
  void (*xor_scatter_single)(std::uint64_t* acc, const std::uint64_t* rows,
                             std::size_t w, const std::uint64_t* entries,
                             std::size_t count);
  /// Expands k bit-plane pairs into one 2-bit element byte each:
  ///   out[i] = ((lo[i / 64] >> (i % 64)) & 1) |
  ///            (((hi[i / 64] >> (i % 64)) & 1) << 1)   for i in [0, k).
  /// This is the response unpack step (packed GF(4) component planes to
  /// one element byte per bitplane); it sweeps every accumulator pair once
  /// per respond, so it is dispatched alongside the XOR kernels (AVX-512
  /// turns a 64-bit plane word directly into a 64-byte mask expansion).
  void (*spread_pair)(const std::uint64_t* lo, const std::uint64_t* hi,
                      std::size_t k, std::uint8_t* out);
  XorTier tier;
  const char* name;
};

/// Highest tier this CPU supports (probed once, cached).
[[nodiscard]] XorTier best_supported_tier();

/// True when the CPU can run `tier`.
[[nodiscard]] bool tier_supported(XorTier tier);

/// Kernel bundle for a specific tier. Throws ParamError when the CPU lacks
/// the tier (callers gate on tier_supported()).
[[nodiscard]] const XorKernels& kernels_for(XorTier tier);

[[nodiscard]] const char* tier_name(XorTier tier);

}  // namespace ice::simd
