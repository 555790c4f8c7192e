#include "bignum/montgomery.h"

#include <algorithm>
#include <mutex>

#include "common/error.h"
#include "common/scratch.h"

namespace ice::bn {

namespace {

__extension__ using u128 = unsigned __int128;
using Limb = BigInt::Limb;

// Inverse of odd `x` modulo 2^64 by Newton iteration (quadratic convergence:
// 6 steps reach 64 bits from the 1-bit seed).
Limb inv64(Limb x) {
  Limb inv = 1;
  for (int i = 0; i < 6; ++i) inv *= 2 - x * inv;
  return inv;
}

// t >= n (comparing the k-limb t against n)?
bool ge_mod(const Limb* t, const Limb* n, std::size_t k) {
  for (std::size_t i = k; i-- > 0;) {
    if (t[i] != n[i]) return t[i] > n[i];
  }
  return true;  // t == n also subtracts (yields 0, still reduced)
}

// out = t - n over k limbs (requires t >= n when called with carry-out 0).
void sub_mod(Limb* out, const Limb* t, const Limb* n, std::size_t k) {
  Limb borrow = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const Limb ti = t[i];
    const Limb d = ti - n[i];
    const Limb b1 = ti < n[i] ? 1u : 0u;
    out[i] = d - borrow;
    const Limb b2 = d < borrow ? 1u : 0u;
    borrow = b1 | b2;
  }
}

// Largest odd-power table pow_into builds, in bytes: the table comes from
// the calling thread's ScratchArena lease and 32 KiB stays L1-resident.
constexpr std::size_t kMaxWindowTableBytes = 32 * 1024;

// Sliding-window width for a nbits-long exponent over k-limb residues:
// minimizes 2^{w-1} table products + nbits/(w+1) window products. Widening
// w -> w+1 pays once nbits > 2^{w-1} (w+1) (w+2), i.e. past 1792, 4608,
// 11520, 28160, ... bits; the table cap stops it at w = 9 for k = 16.
unsigned window_bits_for(std::size_t nbits, std::size_t k) {
  if (nbits <= 32) return 2;
  if (nbits <= 128) return 4;
  if (nbits <= 1024) return 5;
  unsigned w = 6;
  while ((std::size_t{1} << (w - 1)) * (w + 1) * (w + 2) < nbits &&
         (std::size_t{1} << w) * k * sizeof(Limb) <= kMaxWindowTableBytes) {
    ++w;
  }
  return w;
}

// Shared last step of every kernel: r is the k-limb Montgomery result and
// `top` its carry limb. r + top * R < 2N, so one conditional subtraction
// lands in [0, N).
inline void reduce_once(Limb* out, const Limb* r, Limb top, const Limb* n,
                        std::size_t k) {
  if (top != 0 || ge_mod(r, n, k)) {
    sub_mod(out, r, n, k);
  } else {
    std::copy(r, r + k, out);
  }
}

#if defined(__x86_64__) && defined(__GNUC__)
#define ICE_BN_HAVE_FIXED_KERNELS 1

// c2:c1:c0 += x * y[0]: one MULX product folded into a three-limb column
// accumulator (ADD/ADC/ADC; the top limb only counts carries).
__attribute__((always_inline)) inline void mac(Limb& c0, Limb& c1, Limb& c2,
                                               Limb x, const Limb* y) {
  Limb lo, hi;
  asm("mulx %[y], %[lo], %[hi]\n\t"
      "add %[lo], %[c0]\n\t"
      "adc %[hi], %[c1]\n\t"
      "adc $0, %[c2]"
      : [c0] "+r"(c0), [c1] "+r"(c1), [c2] "+r"(c2), [lo] "=&r"(lo),
        [hi] "=&r"(hi)
      : [y] "m"(*y), "d"(x)
      : "cc");
}

// c2:c1:c0 += x2:x1:x0.
__attribute__((always_inline)) inline void add3(Limb& c0, Limb& c1, Limb& c2,
                                                Limb x0, Limb x1, Limb x2) {
  asm("add %[x0], %[c0]\n\t"
      "adc %[x1], %[c1]\n\t"
      "adc %[x2], %[c2]"
      : [c0] "+r"(c0), [c1] "+r"(c1), [c2] "+r"(c2)
      : [x0] "r"(x0), [x1] "r"(x1), [x2] "r"(x2)
      : "cc");
}

// c2:c1:c0 *= 2.
__attribute__((always_inline)) inline void dbl3(Limb& c0, Limb& c1, Limb& c2) {
  asm("add %[c0], %[c0]\n\t"
      "adc %[c1], %[c1]\n\t"
      "adc %[c2], %[c2]"
      : [c0] "+r"(c0), [c1] "+r"(c1), [c2] "+r"(c2)
      :
      : "cc");
}

// x2:x1:x0 += sum of p[j] * q[c - j] over j in [lo, hi). kFull unrolls the
// run completely (its bounds are constants once the column loop around it
// is unrolled); otherwise eight products per loop trip.
template <bool kFull>
__attribute__((always_inline)) inline void dot(Limb& x0, Limb& x1, Limb& x2,
                                               const Limb* p, const Limb* q,
                                               std::size_t c, std::size_t lo,
                                               std::size_t hi) {
  if constexpr (kFull) {
#pragma GCC unroll 64
    for (std::size_t j = lo; j < hi; ++j) mac(x0, x1, x2, p[j], q + (c - j));
  } else {
#pragma GCC unroll 8
    for (std::size_t j = lo; j < hi; ++j) mac(x0, x1, x2, p[j], q + (c - j));
  }
}

// Montgomery multiply and square for a compile-time limb count K.
//
// Product scanning with the reduction folded into each column (the FIPS
// ordering): column c of the 2K-limb result gathers every a[j] * b[c-j]
// into the accumulator X and every m[j] * n[c-j] into Y. Both are fresh
// three-limb register accumulators with their own carry chains, so the two
// product streams never wait on each other, and column c+1's a * b
// products run while column c's multiplier m[c] = (low limb) * n0inv is
// still being derived. X and Y are merged with the two carry limbs of
// column c-1 at the end of the column.
// Below column K the merged low limb is cancelled by m[c] * n[0]; from
// column K on it is result limb c - K. So t[] never exists: the
// accumulator lives in registers and the only stores are the K result limbs
// and the K multipliers.
//
// Up to 16 limbs the column loop and every product run unroll completely
// into straight-line MULX code (a 16-limb square is ~11 KiB of it). At 32
// limbs that would be ~100 KiB for the pair, far past the L1 instruction
// cache, so the columns stay a loop with eight-product trips.
//
// Every load of a and b happens before the result is written to `out`, so
// out may alias a and/or b. m[c] is the same (t mod 2^64) * n0inv the
// portable kernels derive at round c, so both compute the same value, and
// reduce_once makes it the same bits.
template <std::size_t K>
struct Fixed {
  static constexpr bool kUnrolled = K <= 16;

  static void mul(Limb* out, const Limb* a, const Limb* b, const Limb* n,
                  Limb n0inv, std::size_t /*k*/, Limb* /*scratch*/) {
    Columns cols;
    auto column = [&](std::size_t c) __attribute__((always_inline)) {
      const std::size_t lo = c < K ? 0 : c - K + 1;
      const std::size_t hi = c < K ? c : K;  // m[j] exists for j < hi
      Limb x0 = 0, x1 = 0, x2 = 0, y0 = 0, y1 = 0, y2 = 0;
      dot<kUnrolled>(x0, x1, x2, a, b, c, lo, hi);
      if (c < K) mac(x0, x1, x2, a[c], b);
      dot<kUnrolled>(y0, y1, y2, cols.m, n, c, lo, hi);
      cols.close(c, x0, x1, x2, y0, y1, y2, n, n0inv);
    };
    if constexpr (kUnrolled) {
#pragma GCC unroll 64
      for (std::size_t c = 0; c < 2 * K - 1; ++c) column(c);
    } else {
      for (std::size_t c = 0; c < 2 * K - 1; ++c) column(c);
    }
    cols.finish(out, n);
  }

  static void sqr(Limb* out, const Limb* a, const Limb* n, Limb n0inv,
                  std::size_t /*k*/, Limb* /*scratch*/) {
    Columns cols;
    auto column = [&](std::size_t c) __attribute__((always_inline)) {
      const std::size_t lo = c < K ? 0 : c - K + 1;
      const std::size_t hi = c < K ? c : K;
      Limb x0 = 0, x1 = 0, x2 = 0, y0 = 0, y1 = 0, y2 = 0;
      // Cross products a[i] * a[c-i] with i < c-i, once each, doubled.
      dot<kUnrolled>(x0, x1, x2, a, a, c, lo, (c + 1) / 2);
      dbl3(x0, x1, x2);
      if (c % 2 == 0) mac(x0, x1, x2, a[c / 2], a + c / 2);
      dot<kUnrolled>(y0, y1, y2, cols.m, n, c, lo, hi);
      cols.close(c, x0, x1, x2, y0, y1, y2, n, n0inv);
    };
    if constexpr (kUnrolled) {
#pragma GCC unroll 64
      for (std::size_t c = 0; c < 2 * K - 1; ++c) column(c);
    } else {
      for (std::size_t c = 0; c < 2 * K - 1; ++c) column(c);
    }
    cols.finish(out, n);
  }

 private:
  // The state carried from column to column.
  struct Columns {
    Limb m[K];       // the reduction multipliers m[0..K)
    Limb r[K];       // the result limbs, before the final subtraction
    Limb c0 = 0;     // the two carry limbs into the next column
    Limb c1 = 0;

    // Merges column c's X and Y into the carry-in, then either derives m[c]
    // and cancels the low limb (c < K) or emits result limb c - K, and
    // leaves the column's two carry limbs for column c + 1.
    __attribute__((always_inline)) void close(std::size_t c, Limb x0,
                                              Limb x1, Limb x2, Limb y0,
                                              Limb y1, Limb y2, const Limb* n,
                                              Limb n0inv) {
      Limb c2 = 0;
      add3(c0, c1, c2, x0, x1, x2);
      add3(c0, c1, c2, y0, y1, y2);
      if (c < K) {
        m[c] = c0 * n0inv;
        mac(c0, c1, c2, m[c], n);  // the low limb becomes exactly 0
      } else {
        r[c - K] = c0;
      }
      c0 = c1;
      c1 = c2;
    }

    // After column 2K - 2: c0 is the top result limb and c1 its carry.
    void finish(Limb* out, const Limb* n) {
      r[K - 1] = c0;
      reduce_once(out, r, c1, n, K);
    }
  };
};
#endif  // x86-64 GNU

detail::Kernels pick_kernels(std::size_t k) {
#ifdef ICE_BN_HAVE_FIXED_KERNELS
  __builtin_cpu_init();  // contexts may be built by static initializers
  if (__builtin_cpu_supports("bmi2")) {
    switch (k) {
      case 4: return {&Fixed<4>::mul, &Fixed<4>::sqr};
      case 8: return {&Fixed<8>::mul, &Fixed<8>::sqr};
      case 16: return {&Fixed<16>::mul, &Fixed<16>::sqr};
      case 32: return {&Fixed<32>::mul, &Fixed<32>::sqr};
      default: break;
    }
  }
#endif
  return {&detail::mont_mul_portable, &detail::mont_sqr_portable};
}

}  // namespace

namespace detail {

void mont_mul_portable(Limb* out, const Limb* a, const Limb* b, const Limb* n,
                       Limb n0inv, std::size_t k, Limb* scratch) {
  // Fused CIOS into scratch[0..k+1]: each round adds a[i] * b and m * n in
  // ONE pass over t with two independent carry chains (c1 for a*b, c2 for
  // m*n), halving the t traffic per round and letting the two multiply
  // streams overlap instead of serializing on a single carry chain.
  Limb* t = scratch;
  std::fill(t, t + k + 2, Limb{0});
  for (std::size_t i = 0; i < k; ++i) {
    const Limb ai = a[i];
    u128 p = static_cast<u128>(ai) * b[0] + t[0];
    const Limb m = static_cast<Limb>(p) * n0inv;
    const u128 q = static_cast<u128>(m) * n[0] + static_cast<Limb>(p);
    Limb c1 = static_cast<Limb>(p >> 64);
    Limb c2 = static_cast<Limb>(q >> 64);  // low limb of q is exactly 0
    for (std::size_t j = 1; j < k; ++j) {
      p = static_cast<u128>(ai) * b[j] + t[j] + c1;
      c1 = static_cast<Limb>(p >> 64);
      const u128 r = static_cast<u128>(m) * n[j] + static_cast<Limb>(p) + c2;
      t[j - 1] = static_cast<Limb>(r);
      c2 = static_cast<Limb>(r >> 64);
    }
    const u128 s = static_cast<u128>(t[k]) + c1 + c2;
    t[k - 1] = static_cast<Limb>(s);
    t[k] = t[k + 1] + static_cast<Limb>(s >> 64);
    t[k + 1] = 0;
  }
  reduce_once(out, t, t[k], n, k);
}

void mont_sqr_portable(Limb* out, const Limb* a, const Limb* n, Limb n0inv,
                       std::size_t k, Limb* scratch) {
  // SOS squaring: full 2k-limb square with the cross products computed once
  // and doubled, then a separate Montgomery reduction pass.
  Limb* t = scratch;  // uses 2k + 1 limbs
  std::fill(t, t + 2 * k + 1, Limb{0});

  // Cross products a[i] * a[j], j > i. Row i writes t[2i+1 .. i+k-1] and
  // assigns the carry to t[i+k], which no earlier row has touched.
  for (std::size_t i = 0; i < k; ++i) {
    Limb carry = 0;
    const Limb ai = a[i];
    for (std::size_t j = i + 1; j < k; ++j) {
      const u128 s = static_cast<u128>(ai) * a[j] + t[i + j] + carry;
      t[i + j] = static_cast<Limb>(s);
      carry = static_cast<Limb>(s >> 64);
    }
    t[i + k] = carry;
  }
  // Double the cross products (their sum is < a^2 < 2^{128k}, so no bit
  // falls off the top) and add the diagonal a[i]^2 terms.
  Limb shift_carry = 0;
  for (std::size_t i = 0; i < 2 * k; ++i) {
    const Limb v = t[i];
    t[i] = (v << 1) | shift_carry;
    shift_carry = v >> 63;
  }
  t[2 * k] = shift_carry;
  Limb carry = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const u128 s = static_cast<u128>(a[i]) * a[i] + t[2 * i] + carry;
    t[2 * i] = static_cast<Limb>(s);
    const u128 s2 = static_cast<u128>(t[2 * i + 1]) +
                    static_cast<Limb>(s >> 64);
    t[2 * i + 1] = static_cast<Limb>(s2);
    carry = static_cast<Limb>(s2 >> 64);
  }
  t[2 * k] += carry;

  // Montgomery reduction: k rounds of t += m * n << (64 i), then the
  // result is t >> 64k, which is < 2N because a^2 < N * R. Rounds are
  // fused in pairs: m1 needs only t[i+1] after m0's first two terms, so
  // both rounds then run one shared pass with independent carry chains.
  std::size_t i = 0;
  for (; i + 1 < k; i += 2) {
    const Limb m0 = t[i] * n0inv;
    const u128 p = static_cast<u128>(m0) * n[0] + t[i];
    Limb c0 = static_cast<Limb>(p >> 64);  // low limb of p is exactly 0
    u128 v = static_cast<u128>(m0) * n[1] + t[i + 1] + c0;
    c0 = static_cast<Limb>(v >> 64);
    const Limb m1 = static_cast<Limb>(v) * n0inv;
    const u128 q = static_cast<u128>(m1) * n[0] + static_cast<Limb>(v);
    Limb c1 = static_cast<Limb>(q >> 64);  // low limb of q is exactly 0
    for (std::size_t j = 2; j < k; ++j) {
      v = static_cast<u128>(m0) * n[j] + t[i + j] + c0;
      c0 = static_cast<Limb>(v >> 64);
      const u128 w =
          static_cast<u128>(m1) * n[j - 1] + static_cast<Limb>(v) + c1;
      t[i + j] = static_cast<Limb>(w);
      c1 = static_cast<Limb>(w >> 64);
    }
    const u128 s = static_cast<u128>(t[i + k]) + c0 +
                   static_cast<u128>(m1) * n[k - 1] + c1;
    t[i + k] = static_cast<Limb>(s);
    Limb c = static_cast<Limb>(s >> 64);
    for (std::size_t idx = i + k + 1; c != 0 && idx <= 2 * k; ++idx) {
      const u128 s2 = static_cast<u128>(t[idx]) + c;
      t[idx] = static_cast<Limb>(s2);
      c = static_cast<Limb>(s2 >> 64);
    }
  }
  for (; i < k; ++i) {  // odd k: one single-chain tail round
    const Limb m = t[i] * n0inv;
    carry = 0;
    for (std::size_t j = 0; j < k; ++j) {
      const u128 s = static_cast<u128>(m) * n[j] + t[i + j] + carry;
      t[i + j] = static_cast<Limb>(s);
      carry = static_cast<Limb>(s >> 64);
    }
    for (std::size_t idx = i + k; carry != 0 && idx <= 2 * k; ++idx) {
      const u128 s = static_cast<u128>(t[idx]) + carry;
      t[idx] = static_cast<Limb>(s);
      carry = static_cast<Limb>(s >> 64);
    }
  }
  reduce_once(out, t + k, t[2 * k], n, k);
}

}  // namespace detail

Montgomery::Montgomery(const BigInt& modulus) : n_big_(modulus) {
  if (modulus <= BigInt(1) || modulus.is_even()) {
    throw ParamError("Montgomery: modulus must be odd and > 1");
  }
  n_ = modulus.limbs();
  k_ = n_.size();
  n0inv_ = ~inv64(n_[0]) + 1;  // -inv mod 2^64
  // R^2 mod N with R = 2^{64k}: compute (2^{64k})^2 mod N via BigInt.
  BigInt r2 = (BigInt(1) << (64 * k_ * 2)).mod(modulus);
  r2_ = r2.limbs();
  r2_.resize(k_, 0);
  BigInt r1 = (BigInt(1) << (64 * k_)).mod(modulus);
  one_mont_ = r1.limbs();
  one_mont_.resize(k_, 0);
  one_plain_.assign(k_, 0);
  one_plain_[0] = 1;
  kernels_ = pick_kernels(k_);
}

Montgomery::LimbVec Montgomery::mont_mul(const LimbVec& a,
                                         const LimbVec& b) const {
  LimbVec out(k_);
  LimbVec scratch(scratch_limbs());
  mul_into(out.data(), a.data(), b.data(), scratch.data());
  return out;
}

Montgomery::LimbVec Montgomery::mont_sqr(const LimbVec& a) const {
  LimbVec out(k_);
  LimbVec scratch(scratch_limbs());
  sqr_into(out.data(), a.data(), scratch.data());
  return out;
}

BigInt Montgomery::reduce(const BigInt& x) const {
  if (!x.is_negative() && x < n_big_) return x;
  return x.mod(n_big_);
}

void Montgomery::to_mont_into(Limb* out, const BigInt& x, Limb* scratch) const {
  if (!x.is_negative() && x < n_big_) {
    // Already reduced (the common case): no BigInt temporary at all.
    const LimbBuf& limbs = x.limbs();
    std::copy(limbs.begin(), limbs.end(), out);
    std::fill(out + limbs.size(), out + k_, Limb{0});
  } else {
    const BigInt red = x.mod(n_big_);  // SBO: stack for protocol widths
    const LimbBuf& limbs = red.limbs();
    std::copy(limbs.begin(), limbs.end(), out);
    std::fill(out + limbs.size(), out + k_, Limb{0});
  }
  mul_into(out, out, r2_.data(), scratch);
}

void Montgomery::from_mont_into(BigInt& out, const Limb* x,
                                Limb* scratch) const {
  out.limbs_.resize_uninit(k_);
  mul_into(out.limbs_.data(), x, one_plain_.data(), scratch);
  out.sign_ = 1;
  out.normalize();
}

Montgomery::LimbVec Montgomery::to_mont(const BigInt& x) const {
  LimbVec v(k_);
  LimbVec scratch(scratch_limbs());
  to_mont_into(v.data(), x, scratch.data());
  return v;
}

BigInt Montgomery::from_mont(const LimbVec& x) const {
  BigInt out;
  LimbVec scratch(scratch_limbs());
  from_mont_into(out, x.data(), scratch.data());
  return out;
}

BigInt Montgomery::mul(const BigInt& a, const BigInt& b) const {
  return from_mont(mont_mul(to_mont(a), to_mont(b)));
}

BigInt Montgomery::pow(const BigInt& base, const BigInt& exp) const {
  BigInt out;
  pow_into(out, base, exp);
  return out;
}

void Montgomery::pow_into(BigInt& out, const BigInt& base,
                          const BigInt& exp) const {
  if (exp.is_negative()) throw ParamError("Montgomery::pow: negative exponent");
  if (exp.is_zero()) {
    out = BigInt(1).mod(n_big_);
    return;
  }

  const std::size_t nbits = exp.bit_length();
  const unsigned w = window_bits_for(nbits, k_);
  const std::size_t k = k_;
  const std::size_t tsize = std::size_t{1} << (w - 1);

  // One arena lease holds the odd-power table, base^2, the accumulator and
  // the kernel scratch; every slice is fully written before it is read.
  ScratchArena::Lease lease =
      ScratchArena::local().take(tsize * k + 2 * k + scratch_limbs());
  Limb* table = lease.data();           // tsize entries of k limbs
  Limb* b2 = table + tsize * k;         // k limbs
  Limb* acc = b2 + k;                   // k limbs
  Limb* scratch = acc + k;              // scratch_limbs()

  // Odd powers base^1, base^3, ..., base^{2^w - 1} in Montgomery form.
  to_mont_into(table, base, scratch);
  if (tsize > 1) {
    sqr_into(b2, table, scratch);
    for (std::size_t i = 1; i < tsize; ++i) {
      mul_into(table + i * k, table + (i - 1) * k, b2, scratch);
    }
  }

  // Sliding odd windows from the top; the chain between windows is pure
  // squarings on the sqr_into specialization.
  bool started = false;
  std::size_t i = nbits;
  while (i-- > 0) {
    if (!exp.bit(i)) {
      if (started) sqr_into(acc, acc, scratch);
      continue;
    }
    std::size_t j = i >= w - 1 ? i - (w - 1) : 0;
    while (!exp.bit(j)) ++j;  // make the window digit odd
    unsigned digit = 0;
    for (std::size_t b = j; b <= i; ++b) {
      digit |= static_cast<unsigned>(exp.bit(b)) << (b - j);
    }
    if (started) {
      for (std::size_t s = 0; s <= i - j; ++s) {
        sqr_into(acc, acc, scratch);
      }
      mul_into(acc, acc, table + (digit >> 1) * k, scratch);
    } else {
      std::copy(table + (digit >> 1) * k, table + (digit >> 1) * k + k, acc);
      started = true;
    }
    if (j == 0) break;
    i = j;  // loop decrement moves to bit j - 1
  }
  from_mont_into(out, acc, scratch);
}

namespace {

// Process-wide shared() cache. LRU without hot-path exclusive locking:
// lookups under the shared lock stamp the entry's atomic use counter, and
// eviction (under the exclusive lock) drops the entry with the stalest
// stamp. Evicted contexts stay alive through outstanding shared_ptrs.
struct SharedEntry {
  BigInt modulus;
  std::shared_ptr<const Montgomery> ctx;
  mutable std::atomic<std::uint64_t> last_use{0};

  SharedEntry(BigInt m, std::shared_ptr<const Montgomery> c,
              std::uint64_t stamp)
      : modulus(std::move(m)), ctx(std::move(c)), last_use(stamp) {}
  SharedEntry(SharedEntry&& o) noexcept
      : modulus(std::move(o.modulus)),
        ctx(std::move(o.ctx)),
        last_use(o.last_use.load(std::memory_order_relaxed)) {}
  SharedEntry& operator=(SharedEntry&& o) noexcept {
    modulus = std::move(o.modulus);
    ctx = std::move(o.ctx);
    last_use.store(o.last_use.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
    return *this;
  }
};

struct SharedCache {
  std::shared_mutex mu;
  std::vector<SharedEntry> entries;
  std::atomic<std::uint64_t> clock{0};
};

SharedCache& shared_cache() {
  static SharedCache& cache = *new SharedCache;  // leaked: static teardown
  return cache;
}

}  // namespace

std::shared_ptr<const Montgomery> Montgomery::shared(const BigInt& modulus) {
  SharedCache& cache = shared_cache();
  {
    std::shared_lock lock(cache.mu);
    for (const auto& e : cache.entries) {
      if (e.modulus == modulus) {
        e.last_use.store(
            cache.clock.fetch_add(1, std::memory_order_relaxed) + 1,
            std::memory_order_relaxed);
        return e.ctx;
      }
    }
  }
  auto fresh = std::make_shared<const Montgomery>(modulus);
  std::unique_lock lock(cache.mu);
  for (const auto& e : cache.entries) {
    if (e.modulus == modulus) return e.ctx;
  }
  if (cache.entries.size() >= kMaxSharedContexts) {
    auto stalest = cache.entries.begin();
    for (auto it = cache.entries.begin(); it != cache.entries.end(); ++it) {
      if (it->last_use.load(std::memory_order_relaxed) <
          stalest->last_use.load(std::memory_order_relaxed)) {
        stalest = it;
      }
    }
    cache.entries.erase(stalest);
  }
  cache.entries.emplace_back(
      modulus, fresh, cache.clock.fetch_add(1, std::memory_order_relaxed) + 1);
  return fresh;
}

std::size_t Montgomery::shared_cache_size() {
  SharedCache& cache = shared_cache();
  std::shared_lock lock(cache.mu);
  return cache.entries.size();
}

BigInt mod_pow(const BigInt& base, const BigInt& exp, const BigInt& m) {
  if (m.sign() <= 0) throw ParamError("mod_pow: modulus must be positive");
  if (m == BigInt(1)) return BigInt(0);
  if (m.is_odd()) {
    return Montgomery(m).pow(base, exp);
  }
  // Even modulus: plain square-and-multiply (not on any hot path).
  if (exp.is_negative()) throw ParamError("mod_pow: negative exponent");
  BigInt result(1);
  BigInt b = base.mod(m);
  for (std::size_t i = exp.bit_length(); i-- > 0;) {
    result = (result * result).mod(m);
    if (exp.bit(i)) result = (result * b).mod(m);
  }
  return result;
}

}  // namespace ice::bn
