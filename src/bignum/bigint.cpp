#include "bignum/bigint.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

#include "common/error.h"

namespace ice::bn {

namespace {

using Limb = BigInt::Limb;
__extension__ using u128 = unsigned __int128;

constexpr std::size_t kKaratsubaThreshold = 32;  // limbs

void trim(LimbBuf& v) {
  while (!v.empty() && v.back() == 0) v.pop_back();
}

int hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  throw std::invalid_argument("BigInt: invalid hex digit");
}

// Multiplies magnitude by a small value and adds a small value, in place.
void mul_add_small(LimbBuf& v, Limb mul, Limb add) {
  Limb carry = add;
  for (auto& limb : v) {
    u128 t = static_cast<u128>(limb) * mul + carry;
    limb = static_cast<Limb>(t);
    carry = static_cast<Limb>(t >> 64);
  }
  if (carry) v.push_back(carry);
}

// Divides magnitude by a small value in place; returns remainder.
Limb div_small(LimbBuf& v, Limb den) {
  u128 rem = 0;
  for (std::size_t i = v.size(); i-- > 0;) {
    u128 cur = (rem << 64) | v[i];
    v[i] = static_cast<Limb>(cur / den);
    rem = cur % den;
  }
  trim(v);
  return static_cast<Limb>(rem);
}

}  // namespace

BigInt::BigInt(std::int64_t v) {
  if (v == 0) return;
  sign_ = v > 0 ? 1 : -1;
  // Careful with INT64_MIN: negate in unsigned space.
  const auto mag = v > 0 ? static_cast<std::uint64_t>(v)
                         : ~static_cast<std::uint64_t>(v) + 1;
  limbs_.push_back(mag);
}

BigInt::BigInt(std::uint64_t v) {
  if (v == 0) return;
  sign_ = 1;
  limbs_.push_back(v);
}

void BigInt::normalize() {
  trim(limbs_);
  if (limbs_.empty()) sign_ = 0;
}

BigInt BigInt::from_limbs(LimbBuf limbs) {
  BigInt r;
  r.limbs_ = std::move(limbs);
  trim(r.limbs_);
  r.sign_ = r.limbs_.empty() ? 0 : 1;
  return r;
}

BigInt BigInt::from_limbs(const Limb* limbs, std::size_t count) {
  BigInt r;
  r.assign_limbs(limbs, count);
  return r;
}

void BigInt::assign_limbs(const Limb* limbs, std::size_t count) {
  limbs_.assign(limbs, count);
  trim(limbs_);
  sign_ = limbs_.empty() ? 0 : 1;
}

BigInt BigInt::from_hex(std::string_view hex) {
  bool neg = false;
  if (!hex.empty() && (hex[0] == '-' || hex[0] == '+')) {
    neg = hex[0] == '-';
    hex.remove_prefix(1);
  }
  if (hex.empty()) throw std::invalid_argument("BigInt::from_hex: empty");
  BigInt r;
  // Parse from the least significant end, 16 hex digits per limb.
  std::size_t pos = hex.size();
  while (pos > 0) {
    const std::size_t take = std::min<std::size_t>(16, pos);
    Limb limb = 0;
    for (std::size_t i = pos - take; i < pos; ++i) {
      limb = (limb << 4) | static_cast<Limb>(hex_value(hex[i]));
    }
    r.limbs_.push_back(limb);
    pos -= take;
  }
  trim(r.limbs_);
  r.sign_ = r.limbs_.empty() ? 0 : (neg ? -1 : 1);
  return r;
}

BigInt BigInt::from_dec(std::string_view dec) {
  bool neg = false;
  if (!dec.empty() && (dec[0] == '-' || dec[0] == '+')) {
    neg = dec[0] == '-';
    dec.remove_prefix(1);
  }
  if (dec.empty()) throw std::invalid_argument("BigInt::from_dec: empty");
  BigInt r;
  std::size_t pos = 0;
  while (pos < dec.size()) {
    const std::size_t take = std::min<std::size_t>(19, dec.size() - pos);
    Limb chunk = 0;
    Limb scale = 1;
    for (std::size_t i = 0; i < take; ++i) {
      const char c = dec[pos + i];
      if (c < '0' || c > '9') {
        throw std::invalid_argument("BigInt::from_dec: invalid digit");
      }
      chunk = chunk * 10 + static_cast<Limb>(c - '0');
      scale *= 10;
    }
    mul_add_small(r.limbs_, scale, chunk);
    pos += take;
  }
  trim(r.limbs_);
  r.sign_ = r.limbs_.empty() ? 0 : (neg ? -1 : 1);
  return r;
}

BigInt BigInt::from_bytes_be(BytesView bytes) {
  BigInt r;
  r.assign_bytes_be(bytes);
  return r;
}

void BigInt::assign_bytes_be(BytesView bytes) {
  limbs_.resize_uninit((bytes.size() + 7) / 8);
  std::size_t pos = bytes.size();
  std::size_t out = 0;
  while (pos > 0) {
    const std::size_t take = std::min<std::size_t>(8, pos);
    Limb limb = 0;
    for (std::size_t i = pos - take; i < pos; ++i) {
      limb = (limb << 8) | bytes[i];
    }
    limbs_[out++] = limb;
    pos -= take;
  }
  trim(limbs_);
  sign_ = limbs_.empty() ? 0 : 1;
}

std::string BigInt::to_hex() const {
  if (is_zero()) return "0";
  std::string out;
  if (sign_ < 0) out.push_back('-');
  char buf[17];
  std::snprintf(buf, sizeof buf, "%llx",
                static_cast<unsigned long long>(limbs_.back()));
  out += buf;
  for (std::size_t i = limbs_.size() - 1; i-- > 0;) {
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(limbs_[i]));
    out += buf;
  }
  return out;
}

std::string BigInt::to_dec() const {
  if (is_zero()) return "0";
  LimbBuf mag = limbs_;
  std::string digits;
  while (!mag.empty()) {
    Limb rem = div_small(mag, 10'000'000'000'000'000'000ULL);
    char buf[20];
    if (mag.empty()) {
      std::snprintf(buf, sizeof buf, "%llu",
                    static_cast<unsigned long long>(rem));
    } else {
      std::snprintf(buf, sizeof buf, "%019llu",
                    static_cast<unsigned long long>(rem));
    }
    digits.insert(0, buf);
  }
  return sign_ < 0 ? "-" + digits : digits;
}

Bytes BigInt::to_bytes_be() const {
  if (is_zero()) return {};
  const std::size_t nbytes = (bit_length() + 7) / 8;
  return to_bytes_be(nbytes);
}

Bytes BigInt::to_bytes_be(std::size_t len) const {
  if ((bit_length() + 7) / 8 > len) {
    throw ParamError("BigInt::to_bytes_be: value does not fit in " +
                     std::to_string(len) + " bytes");
  }
  Bytes out(len, 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    Limb limb = limbs_[i];
    for (int b = 0; b < 8; ++b) {
      const std::size_t pos = i * 8 + static_cast<std::size_t>(b);
      if (pos >= len) break;
      out[len - 1 - pos] = static_cast<std::uint8_t>(limb & 0xff);
      limb >>= 8;
    }
  }
  return out;
}

std::size_t BigInt::bit_length() const {
  if (limbs_.empty()) return 0;
  return (limbs_.size() - 1) * 64 +
         (64 - static_cast<std::size_t>(std::countl_zero(limbs_.back())));
}

bool BigInt::bit(std::size_t i) const {
  const std::size_t limb = i / 64;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % 64)) & 1u;
}

bool BigInt::fits_u64() const { return sign_ >= 0 && limbs_.size() <= 1; }

std::uint64_t BigInt::to_u64() const {
  if (!fits_u64()) throw ParamError("BigInt::to_u64: out of range");
  return limbs_.empty() ? 0 : limbs_[0];
}

BigInt BigInt::abs() const {
  BigInt r = *this;
  if (r.sign_ < 0) r.sign_ = 1;
  return r;
}

BigInt BigInt::negated() const {
  BigInt r = *this;
  r.sign_ = -r.sign_;
  return r;
}

int BigInt::cmp_mag(const BigInt& a, const BigInt& b) {
  if (a.limbs_.size() != b.limbs_.size()) {
    return a.limbs_.size() < b.limbs_.size() ? -1 : 1;
  }
  for (std::size_t i = a.limbs_.size(); i-- > 0;) {
    if (a.limbs_[i] != b.limbs_[i]) return a.limbs_[i] < b.limbs_[i] ? -1 : 1;
  }
  return 0;
}

std::strong_ordering operator<=>(const BigInt& a, const BigInt& b) {
  if (a.sign_ != b.sign_) return a.sign_ <=> b.sign_;
  const int mag = BigInt::cmp_mag(a, b);
  const int r = a.sign_ >= 0 ? mag : -mag;
  return r <=> 0;
}

LimbBuf BigInt::add_mag(const LimbBuf& a,
                                  const LimbBuf& b) {
  const auto& longer = a.size() >= b.size() ? a : b;
  const auto& shorter = a.size() >= b.size() ? b : a;
  LimbBuf out;
  out.reserve(longer.size() + 1);
  Limb carry = 0;
  for (std::size_t i = 0; i < longer.size(); ++i) {
    u128 t = static_cast<u128>(longer[i]) + carry;
    if (i < shorter.size()) t += shorter[i];
    out.push_back(static_cast<Limb>(t));
    carry = static_cast<Limb>(t >> 64);
  }
  if (carry) out.push_back(carry);
  return out;
}

LimbBuf BigInt::sub_mag(const LimbBuf& a,
                                  const LimbBuf& b) {
  // Precondition: |a| >= |b|.
  LimbBuf out;
  out.reserve(a.size());
  Limb borrow = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const Limb bi = i < b.size() ? b[i] : 0;
    const Limb ai = a[i];
    Limb d = ai - bi;
    const Limb borrow1 = ai < bi ? 1u : 0u;
    const Limb d2 = d - borrow;
    const Limb borrow2 = d < borrow ? 1u : 0u;
    out.push_back(d2);
    borrow = borrow1 | borrow2;
  }
  trim(out);
  return out;
}

LimbBuf BigInt::mul_school(const LimbBuf& a,
                                     const LimbBuf& b) {
  if (a.empty() || b.empty()) return {};
  LimbBuf out(a.size() + b.size(), 0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    Limb carry = 0;
    const Limb ai = a[i];
    if (ai == 0) continue;
    for (std::size_t j = 0; j < b.size(); ++j) {
      u128 t = static_cast<u128>(ai) * b[j] + out[i + j] + carry;
      out[i + j] = static_cast<Limb>(t);
      carry = static_cast<Limb>(t >> 64);
    }
    out[i + b.size()] = carry;
  }
  trim(out);
  return out;
}

LimbBuf BigInt::mul_karatsuba(const LimbBuf& a,
                                        const LimbBuf& b) {
  const std::size_t n = std::max(a.size(), b.size());
  if (std::min(a.size(), b.size()) < kKaratsubaThreshold) {
    return mul_school(a, b);
  }
  const std::size_t half = n / 2;
  auto lo = [&](const LimbBuf& v) {
    LimbBuf r(v.begin(),
                        v.begin() + static_cast<std::ptrdiff_t>(
                                        std::min(half, v.size())));
    trim(r);
    return r;
  };
  auto hi = [&](const LimbBuf& v) {
    if (v.size() <= half) return LimbBuf{};
    LimbBuf r(v.begin() + static_cast<std::ptrdiff_t>(half),
                        v.end());
    trim(r);
    return r;
  };
  const auto a0 = lo(a), a1 = hi(a), b0 = lo(b), b1 = hi(b);
  auto z0 = mul_karatsuba(a0, b0);
  auto z2 = mul_karatsuba(a1, b1);
  auto sa = add_mag(a0, a1);
  auto sb = add_mag(b0, b1);
  auto z1 = mul_karatsuba(sa, sb);
  z1 = sub_mag(z1, z0);
  z1 = sub_mag(z1, z2);
  // result = z0 + (z1 << 64*half) + (z2 << 128*half)
  LimbBuf out(std::max({z0.size(), z1.size() + half,
                                  z2.size() + 2 * half}) + 1,
                        0);
  auto add_at = [&](const LimbBuf& v, std::size_t off) {
    Limb carry = 0;
    std::size_t i = 0;
    for (; i < v.size(); ++i) {
      u128 t = static_cast<u128>(out[off + i]) + v[i] + carry;
      out[off + i] = static_cast<Limb>(t);
      carry = static_cast<Limb>(t >> 64);
    }
    while (carry) {
      u128 t = static_cast<u128>(out[off + i]) + carry;
      out[off + i] = static_cast<Limb>(t);
      carry = static_cast<Limb>(t >> 64);
      ++i;
    }
  };
  add_at(z0, 0);
  add_at(z1, half);
  add_at(z2, 2 * half);
  trim(out);
  return out;
}

LimbBuf BigInt::mul_mag(const LimbBuf& a,
                                  const LimbBuf& b) {
  return mul_karatsuba(a, b);
}

void BigInt::divmod_mag(const LimbBuf& num,
                        const LimbBuf& den, LimbBuf& quot,
                        LimbBuf& rem) {
  // Knuth TAOCP vol. 2, Algorithm D, base 2^64.
  if (den.empty()) throw ParamError("BigInt: division by zero");
  if (num.size() < den.size()) {
    quot.clear();
    rem = num;
    trim(rem);
    return;
  }
  if (den.size() == 1) {
    quot = num;
    const Limb r = div_small(quot, den[0]);
    rem.clear();
    if (r) rem.push_back(r);
    return;
  }
  const int shift = std::countl_zero(den.back());
  const std::size_t n = den.size();
  const std::size_t m = num.size() - n;

  // Normalized copies: v = den << shift, u = num << shift (u gets an extra
  // high limb).
  LimbBuf v(n);
  for (std::size_t i = n; i-- > 0;) {
    v[i] = den[i] << shift;
    if (shift && i > 0) v[i] |= den[i - 1] >> (64 - shift);
  }
  LimbBuf u(num.size() + 1, 0);
  for (std::size_t i = num.size(); i-- > 0;) {
    u[i] = num[i] << shift;
    if (shift && i > 0) u[i] |= num[i - 1] >> (64 - shift);
  }
  if (shift) u[num.size()] = num.back() >> (64 - shift);

  quot.assign(m + 1, 0);
  const Limb v1 = v[n - 1];
  const Limb v2 = v[n - 2];
  for (std::size_t j = m + 1; j-- > 0;) {
    // Estimate qhat = (u[j+n]*B + u[j+n-1]) / v1.
    const u128 top = (static_cast<u128>(u[j + n]) << 64) | u[j + n - 1];
    u128 qhat = top / v1;
    u128 rhat = top % v1;
    if (qhat > ~Limb{0}) {
      qhat = ~Limb{0};
      rhat = top - qhat * v1;
    }
    while (rhat <= ~Limb{0} &&
           qhat * v2 > ((rhat << 64) | u[j + n - 2])) {
      --qhat;
      rhat += v1;
    }
    // Multiply-subtract: u[j..j+n] -= qhat * v.
    Limb mul_carry = 0;
    Limb borrow = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const u128 p = static_cast<u128>(static_cast<Limb>(qhat)) * v[i] +
                     mul_carry;
      const Limb plo = static_cast<Limb>(p);
      mul_carry = static_cast<Limb>(p >> 64);
      const Limb ui = u[j + i];
      Limb d = ui - plo;
      const Limb b1 = ui < plo ? 1u : 0u;
      const Limb d2 = d - borrow;
      const Limb b2 = d < borrow ? 1u : 0u;
      u[j + i] = d2;
      borrow = b1 | b2;
    }
    const Limb utop = u[j + n];
    const Limb sub = mul_carry + borrow;
    u[j + n] = utop - sub;
    if (utop < sub) {
      // qhat was one too large: add back.
      --qhat;
      Limb carry = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const u128 t = static_cast<u128>(u[j + i]) + v[i] + carry;
        u[j + i] = static_cast<Limb>(t);
        carry = static_cast<Limb>(t >> 64);
      }
      u[j + n] += carry;
    }
    quot[j] = static_cast<Limb>(qhat);
  }
  // Denormalize remainder: rem = u[0..n) >> shift.
  rem.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    rem[i] = u[i] >> shift;
    if (shift && i + 1 < n) rem[i] |= u[i + 1] << (64 - shift);
  }
  if (shift) rem[n - 1] |= u[n] << (64 - shift);
  trim(quot);
  trim(rem);
}

BigInt& BigInt::operator+=(const BigInt& rhs) {
  if (rhs.sign_ == 0) return *this;
  if (sign_ == 0) return *this = rhs;
  if (sign_ == rhs.sign_) {
    limbs_ = add_mag(limbs_, rhs.limbs_);
    return *this;
  }
  const int c = cmp_mag(*this, rhs);
  if (c == 0) return *this = BigInt{};
  if (c > 0) {
    limbs_ = sub_mag(limbs_, rhs.limbs_);
  } else {
    limbs_ = sub_mag(rhs.limbs_, limbs_);
    sign_ = rhs.sign_;
  }
  normalize();
  return *this;
}

BigInt& BigInt::operator-=(const BigInt& rhs) { return *this += rhs.negated(); }

BigInt& BigInt::operator*=(const BigInt& rhs) {
  if (sign_ == 0 || rhs.sign_ == 0) return *this = BigInt{};
  limbs_ = mul_mag(limbs_, rhs.limbs_);
  sign_ = sign_ == rhs.sign_ ? 1 : -1;
  normalize();
  return *this;
}

void BigInt::divmod(const BigInt& num, const BigInt& den, BigInt& quot,
                    BigInt& rem) {
  if (den.is_zero()) throw ParamError("BigInt: division by zero");
  LimbBuf q, r;
  divmod_mag(num.limbs_, den.limbs_, q, r);
  quot.limbs_ = std::move(q);
  rem.limbs_ = std::move(r);
  quot.sign_ = quot.limbs_.empty() ? 0 : (num.sign_ * den.sign_);
  rem.sign_ = rem.limbs_.empty() ? 0 : num.sign_;
}

BigInt& BigInt::operator/=(const BigInt& rhs) {
  BigInt q, r;
  divmod(*this, rhs, q, r);
  return *this = std::move(q);
}

BigInt& BigInt::operator%=(const BigInt& rhs) {
  BigInt q, r;
  divmod(*this, rhs, q, r);
  return *this = std::move(r);
}

BigInt BigInt::mod(const BigInt& m) const {
  if (m.sign_ <= 0) throw ParamError("BigInt::mod: modulus must be positive");
  BigInt r = *this % m;
  if (r.is_negative()) r += m;
  return r;
}

BigInt& BigInt::operator<<=(std::size_t bits) {
  if (sign_ == 0 || bits == 0) return *this;
  const std::size_t limb_shift = bits / 64;
  const std::size_t bit_shift = bits % 64;
  LimbBuf out(limbs_.size() + limb_shift + 1, 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    out[i + limb_shift] |= bit_shift ? (limbs_[i] << bit_shift) : limbs_[i];
    if (bit_shift) out[i + limb_shift + 1] |= limbs_[i] >> (64 - bit_shift);
  }
  limbs_ = std::move(out);
  normalize();
  return *this;
}

BigInt& BigInt::operator>>=(std::size_t bits) {
  if (sign_ == 0 || bits == 0) return *this;
  const std::size_t limb_shift = bits / 64;
  const std::size_t bit_shift = bits % 64;
  if (limb_shift >= limbs_.size()) return *this = BigInt{};
  LimbBuf out(limbs_.size() - limb_shift, 0);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = bit_shift ? (limbs_[i + limb_shift] >> bit_shift)
                       : limbs_[i + limb_shift];
    if (bit_shift && i + limb_shift + 1 < limbs_.size()) {
      out[i] |= limbs_[i + limb_shift + 1] << (64 - bit_shift);
    }
  }
  limbs_ = std::move(out);
  normalize();
  return *this;
}

BigInt gcd(const BigInt& a, const BigInt& b) {
  BigInt x = a.abs();
  BigInt y = b.abs();
  while (!y.is_zero()) {
    BigInt r = x % y;
    x = std::move(y);
    y = std::move(r);
  }
  return x;
}

BigInt mod_inverse(const BigInt& a, const BigInt& m) {
  if (m <= BigInt(1)) throw ParamError("mod_inverse: modulus must be > 1");
  // Extended Euclid on (a mod m, m).
  BigInt r0 = m, r1 = a.mod(m);
  BigInt t0 = 0, t1 = 1;
  while (!r1.is_zero()) {
    BigInt q, r2;
    BigInt::divmod(r0, r1, q, r2);
    BigInt t2 = t0 - q * t1;
    r0 = std::move(r1);
    r1 = std::move(r2);
    t0 = std::move(t1);
    t1 = std::move(t2);
  }
  if (r0 != BigInt(1)) throw ParamError("mod_inverse: not invertible");
  return t0.mod(m);
}

}  // namespace ice::bn
