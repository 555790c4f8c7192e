// Fixed-base exponentiation via Lim-Lee comb precomputation.
//
// TagGen raises the same public base g to one block-sized exponent per data
// block (paper Tab. III), and every challenge raises g to a fresh secret
// (Fig. 3). When the base is long-lived, precomputing the comb table
//   T[j] = prod_{bit i of j} g^{2^{a i}},   a = ceil(capacity / h)
// turns a t-bit exponentiation from ~t squarings + t/w multiplies into
// ~a squarings + a multiplies (a = t / h): the h "teeth" of the comb read
// one bit from each of the h exponent blocks per column, so the whole
// squaring chain shrinks by the factor h.
//
// Tables are built once per (context, base, width class) and cached on the
// Montgomery context itself (Montgomery::fixed_base). The only comb built
// outside that cache is the challenge ladder's (ice/protocol.h), which
// owns the combs of its per-key bases g^{2^{iL}} for as long as the key.
#pragma once

#include <cstddef>
#include <vector>

#include "bignum/bigint.h"
#include "bignum/montgomery.h"

namespace ice::bn {

/// Precomputed Lim-Lee comb for one base under one Montgomery context.
/// Immutable and thread-safe after construction. Borrows the context: the
/// context must outlive the comb (contexts from Montgomery::shared live for
/// the whole process).
class FixedBase {
 public:
  /// Builds the comb sized for exponents up to `max_exp_bits` bits
  /// (rounded up; see capacity_bits()). Cost: ~capacity squarings plus
  /// 2^h multiplies, amortized across every later pow() call.
  FixedBase(const Montgomery& mont, const BigInt& base,
            std::size_t max_exp_bits);

  /// Eagerly builds (and caches on `mont`) the comb for `base` sized for
  /// `min_exp_bits`-bit exponents. Montgomery::fixed_base does this lazily
  /// on the first pow of a fresh (context, base) pair, which puts the whole
  /// table build (~capacity squarings + 2^h multiplies) on the first
  /// audit's critical path; key setup calls warm() so the first audit runs
  /// at steady-state cost. Returns the cached comb.
  static std::shared_ptr<const FixedBase> warm(const Montgomery& mont,
                                               const BigInt& base,
                                               std::size_t min_exp_bits);

  /// base^exp mod N for exp >= 0 (throws ParamError on negative exp).
  /// Exponents longer than capacity_bits() fall back to Montgomery::pow,
  /// so the result is always correct (just not comb-accelerated).
  [[nodiscard]] BigInt pow(const BigInt& exp) const;
  /// Destination-passing pow: writes into `out`, reusing its limb capacity;
  /// scratch comes from the calling thread's ScratchArena (zero-allocation
  /// in steady state — the TagGen per-block loop runs on this).
  void pow_into(BigInt& out, const BigInt& exp) const;

  [[nodiscard]] const BigInt& base() const { return base_; }
  [[nodiscard]] std::size_t capacity_bits() const { return cap_bits_; }
  /// Comb teeth h (table holds 2^h residues).
  [[nodiscard]] std::size_t teeth() const { return teeth_; }

 private:
  const Montgomery* mont_;
  BigInt base_;
  std::size_t cap_bits_;  // max supported exponent bits (cols_ * teeth_)
  std::size_t teeth_;     // h
  std::size_t cols_;      // a = ceil(cap_bits_ / h)
  std::vector<Montgomery::LimbVec> table_;  // 2^h entries; [0] unused
};

}  // namespace ice::bn
