#include "bignum/prime.h"

#include <array>

#include "bignum/montgomery.h"
#include "common/error.h"

namespace ice::bn {

namespace {

constexpr std::array<std::uint64_t, 25> kSmallPrimes = {
    2,  3,  5,  7,  11, 13, 17, 19, 23, 29, 31, 37, 41,
    43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97};

// Returns 0 if n has no small factor, otherwise the factor.
std::uint64_t small_factor(const BigInt& n) {
  for (std::uint64_t p : kSmallPrimes) {
    if ((n % BigInt(p)).is_zero()) return p;
  }
  return 0;
}

bool miller_rabin_once(const Montgomery& mont, const BigInt& n_minus_1,
                       const BigInt& d, std::size_t r, const BigInt& base) {
  BigInt x = mont.pow(base, d);
  if (x == BigInt(1) || x == n_minus_1) return true;
  for (std::size_t i = 1; i < r; ++i) {
    x = mont.mul(x, x);
    if (x == n_minus_1) return true;
    if (x == BigInt(1)) return false;  // nontrivial sqrt of 1
  }
  return false;
}

}  // namespace

bool is_probable_prime(const BigInt& n, Rng64& rng, int rounds) {
  if (n < BigInt(2)) return false;
  if (const std::uint64_t f = small_factor(n); f != 0) {
    return n == BigInt(f);
  }
  // n is odd and > 97 here.
  const BigInt n_minus_1 = n - BigInt(1);
  BigInt d = n_minus_1;
  std::size_t r = 0;
  while (d.is_even()) {
    d >>= 1;
    ++r;
  }
  const Montgomery mont(n);
  const BigInt three(3);
  for (int i = 0; i < rounds; ++i) {
    const BigInt base = random_below(rng, n - three) + BigInt(2);  // [2, n-2]
    if (!miller_rabin_once(mont, n_minus_1, d, r, base)) return false;
  }
  return true;
}

BigInt random_prime(Rng64& rng, std::size_t bits, int mr_rounds) {
  if (bits < 2) throw ParamError("random_prime: need at least 2 bits");
  for (;;) {
    BigInt candidate = random_bits(rng, bits);
    if (candidate.is_even()) candidate += BigInt(1);
    if (candidate.bit_length() != bits) continue;  // +1 overflowed width
    if (is_probable_prime(candidate, rng, mr_rounds)) return candidate;
  }
}

BigInt random_safe_prime(Rng64& rng, std::size_t bits, int mr_rounds) {
  if (bits < 3) throw ParamError("random_safe_prime: need at least 3 bits");
  for (;;) {
    // Draw p' of bits-1 bits; p = 2p' + 1 then has exactly `bits` bits.
    BigInt p_prime = random_bits(rng, bits - 1);
    if (p_prime.is_even()) p_prime += BigInt(1);
    if (p_prime.bit_length() != bits - 1) continue;
    // Cheap screens first: p = 2p'+1 must also avoid small factors.
    const BigInt p = (p_prime << 1) + BigInt(1);
    if (small_factor(p) != 0 && p > BigInt(97)) continue;
    if (!is_probable_prime(p_prime, rng, 2)) continue;
    if (!is_probable_prime(p, rng, mr_rounds)) continue;
    if (!is_probable_prime(p_prime, rng, mr_rounds)) continue;
    return p;
  }
}

}  // namespace ice::bn
