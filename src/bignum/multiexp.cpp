#include "bignum/multiexp.h"

#include <algorithm>
#include <vector>

#include "common/error.h"
#include "common/parallel.h"
#include "common/scratch.h"

namespace ice::bn {

namespace {

using Limb = Montgomery::Limb;

// Sliding-window width for Straus: per-base tables cost 2^{w-1} products,
// windows cost ~bits/(w+1) products per base. The edge proof's ladder
// digits (8-33 kbit) take w = 8: at t = 8 digits of 16.5 kbit the
// 128-entry tables cost ~1k products and save ~3k window multiplies
// (bench_modexp's ladder row, ~10% faster than w = 6).
unsigned straus_window(std::size_t max_bits) {
  if (max_bits <= 32) return 2;
  if (max_bits <= 128) return 4;
  if (max_bits <= 1024) return 5;
  if (max_bits <= 8192) return 6;
  return 8;
}

// Bit i of the non-negative e, read straight from its limbs.
inline bool exp_bit(const Limb* limbs, std::size_t n, std::size_t i) {
  return i / 64 < n && ((limbs[i / 64] >> (i % 64)) & 1u);
}

// The next odd window of one exponent, produced top-down as the shared
// chain descends: multiply table[digit >> 1] in when the chain reaches bit
// `pos`. Bases are visited in index order at each position.
struct WindowCursor {
  std::size_t pos;
  std::uint32_t digit;  // odd; 0 once the exponent is used up
};

// The highest window of e below bit `end`: from the next set bit `top`
// down to j = max(top - w + 1, 0), raised to the lowest set bit.
WindowCursor next_window(const BigInt& e, std::size_t end, unsigned w) {
  const Limb* limbs = e.limbs().data();
  const std::size_t n = e.limbs().size();
  std::size_t top = end;
  do {
    if (top == 0) return {0, 0};
    --top;
  } while (!exp_bit(limbs, n, top));
  std::size_t j = top >= w - 1 ? top - (w - 1) : 0;
  while (!exp_bit(limbs, n, j)) ++j;
  std::uint32_t digit = 0;
  for (std::size_t b = j; b <= top; ++b) {
    digit |= static_cast<std::uint32_t>(exp_bit(limbs, n, b)) << (b - j);
  }
  return {j, digit};
}

// prod bases[i]^{exps[i]} over [begin, end) with one shared squaring chain,
// written into the k-limb buffer `out` (Montgomery form). Each base keeps
// one window cursor, so the state is O(bases), not O(windows): table limbs
// come from the calling thread's arena, the cursors reuse thread-local
// capacity — steady-state calls are allocation-free.
void straus_range(const Montgomery& mont, const std::vector<BigInt>& bases,
                  const std::vector<BigInt>& exps, std::size_t begin,
                  std::size_t end, Limb* out) {
  const std::size_t k = mont.limb_count();
  std::size_t max_bits = 0;
  for (std::size_t i = begin; i < end; ++i) {
    max_bits = std::max(max_bits, exps[i].bit_length());
  }
  if (max_bits == 0) {
    std::copy(mont.one_mont().begin(), mont.one_mont().end(), out);
    return;
  }
  const unsigned w = straus_window(max_bits);

  // Per-base odd-power tables laid out flat: offs is a prefix sum of entry
  // counts. A window of an nbits-bit exponent is below 2^min(w, nbits), so
  // that many odd powers cover it; zero exponents get no table.
  static thread_local std::vector<WindowCursor> cursors;
  static thread_local std::vector<std::size_t> offs;
  cursors.resize(end - begin);
  offs.assign(end - begin + 1, 0);
  std::size_t top = 0;
  for (std::size_t i = begin; i < end; ++i) {
    const std::size_t nbits = exps[i].bit_length();
    cursors[i - begin] = next_window(exps[i], nbits, w);
    if (nbits == 0) continue;
    offs[i - begin + 1] = std::size_t{1}
                          << (std::min<std::size_t>(w, nbits) - 1);
    top = std::max(top, cursors[i - begin].pos);
  }
  for (std::size_t i = 1; i < offs.size(); ++i) offs[i] += offs[i - 1];

  // One arena lease: all tables, plus base^2 staging and kernel scratch.
  const std::size_t total = offs.back();
  ScratchArena::Lease lease =
      ScratchArena::local().take(total * k + k + mont.scratch_limbs());
  Limb* tables = lease.data();
  Limb* b2 = tables + total * k;
  Limb* scratch = b2 + k;
  for (std::size_t i = begin; i < end; ++i) {
    const std::size_t ts = offs[i - begin + 1] - offs[i - begin];
    if (ts == 0) continue;
    Limb* table = tables + offs[i - begin] * k;
    mont.to_mont_into(table, bases[i], scratch);
    if (ts > 1) {
      mont.sqr_into(b2, table, scratch);
      for (std::size_t d = 1; d < ts; ++d) {
        mont.mul_into(table + d * k, table + (d - 1) * k, b2, scratch);
      }
    }
  }

  Limb* acc = out;
  bool started = false;
  for (std::size_t pos = top + 1; pos-- > 0;) {
    if (started) mont.sqr_into(acc, acc, scratch);
    for (std::size_t i = 0; i < cursors.size(); ++i) {
      WindowCursor& c = cursors[i];
      if (c.digit == 0 || c.pos != pos) continue;
      const Limb* entry = tables + (offs[i] + (c.digit >> 1)) * k;
      if (started) {
        mont.mul_into(acc, acc, entry, scratch);
      } else {
        std::copy(entry, entry + k, acc);
        started = true;
      }
      c = next_window(exps[begin + i], pos, w);
    }
  }
}

// Pippenger-style bucket method over [begin, end): fixed c-bit windows,
// each window accumulates bases into digit buckets and combines them with
// the running-product trick (prod_d bucket[d]^d in 2 * 2^c multiplies).
// Result goes into the k-limb buffer `out` (Montgomery form).
void pippenger_range(const Montgomery& mont, const std::vector<BigInt>& bases,
                     const std::vector<BigInt>& exps, std::size_t begin,
                     std::size_t end, unsigned c, Limb* out) {
  const std::size_t k = mont.limb_count();
  std::size_t max_bits = 0;
  for (std::size_t i = begin; i < end; ++i) {
    max_bits = std::max(max_bits, exps[i].bit_length());
  }
  if (max_bits == 0) {
    std::copy(mont.one_mont().begin(), mont.one_mont().end(), out);
    return;
  }

  // Flat arena layout: per-base residues, 2^c buckets, suffix products.
  const std::size_t m = end - begin;
  const std::size_t nbuckets = std::size_t{1} << c;
  ScratchArena::Lease lease = ScratchArena::local().take(
      (m + nbuckets + 2) * k + mont.scratch_limbs());
  Limb* base_m = lease.data();
  Limb* bucket = base_m + m * k;
  Limb* running = bucket + nbuckets * k;
  Limb* total = running + k;
  Limb* scratch = total + k;
  for (std::size_t i = begin; i < end; ++i) {
    if (!exps[i].is_zero()) {
      mont.to_mont_into(base_m + (i - begin) * k, bases[i], scratch);
    }
  }

  static thread_local std::vector<std::uint8_t> used;
  const std::size_t windows = (max_bits + c - 1) / c;
  Limb* acc = out;
  bool started = false;
  for (std::size_t win = windows; win-- > 0;) {
    if (started) {
      for (unsigned s = 0; s < c; ++s) mont.sqr_into(acc, acc, scratch);
    }
    used.assign(nbuckets, 0);
    for (std::size_t i = begin; i < end; ++i) {
      const BigInt& e = exps[i];
      std::uint32_t digit = 0;
      for (unsigned b = 0; b < c; ++b) {
        digit |= static_cast<std::uint32_t>(e.bit(win * c + b)) << b;
      }
      if (digit == 0) continue;
      Limb* slot = bucket + digit * k;
      if (!used[digit]) {
        std::copy(base_m + (i - begin) * k, base_m + (i - begin + 1) * k,
                  slot);
        used[digit] = 1;
      } else {
        mont.mul_into(slot, slot, base_m + (i - begin) * k, scratch);
      }
    }
    // prod_d bucket[d]^d via suffix products: running = prod_{d' >= d},
    // total accumulates running once per d.
    bool have_running = false;
    bool have_total = false;
    for (std::size_t d = nbuckets; d-- > 1;) {
      if (used[d]) {
        if (have_running) {
          mont.mul_into(running, running, bucket + d * k, scratch);
        } else {
          std::copy(bucket + d * k, bucket + (d + 1) * k, running);
          have_running = true;
        }
      }
      if (!have_running) continue;
      if (have_total) {
        mont.mul_into(total, total, running, scratch);
      } else {
        std::copy(running, running + k, total);
        have_total = true;
      }
    }
    if (!have_total) continue;
    if (started) {
      mont.mul_into(acc, acc, total, scratch);
    } else {
      std::copy(total, total + k, acc);
      started = true;
    }
  }
  if (!started) {
    std::copy(mont.one_mont().begin(), mont.one_mont().end(), out);
  }
}

// Rough product counts used to pick the algorithm and the Pippenger window.
double straus_cost(std::size_t k, std::size_t bits) {
  const unsigned w = straus_window(bits);
  const double table = static_cast<double>(k) *
                       static_cast<double>(std::size_t{1} << (w - 1));
  const double windows = static_cast<double>(k) * static_cast<double>(bits) /
                         (w + 1.0);
  return 0.8 * static_cast<double>(bits) + table + windows;
}

double pippenger_cost(std::size_t k, std::size_t bits, unsigned c) {
  const double windows = (static_cast<double>(bits) + c - 1) / c;
  return 0.8 * static_cast<double>(bits) +
         windows * (static_cast<double>(k) +
                    2.0 * static_cast<double>(std::size_t{1} << c));
}

void multi_exp_range(const Montgomery& mont, const std::vector<BigInt>& bases,
                     const std::vector<BigInt>& exps, std::size_t begin,
                     std::size_t end, MultiExpAlgo algo, Limb* out) {
  const std::size_t k = end - begin;
  std::size_t max_bits = 0;
  for (std::size_t i = begin; i < end; ++i) {
    max_bits = std::max(max_bits, exps[i].bit_length());
  }
  unsigned best_c = 4;
  if (algo != MultiExpAlgo::kStraus && max_bits > 0) {
    double best = pippenger_cost(k, max_bits, best_c);
    for (unsigned c = 2; c <= 8; ++c) {
      const double cost = pippenger_cost(k, max_bits, c);
      if (cost < best) {
        best = cost;
        best_c = c;
      }
    }
    if (algo == MultiExpAlgo::kAuto &&
        (k < 32 || straus_cost(k, max_bits) <= best)) {
      algo = MultiExpAlgo::kStraus;
    }
  }
  if (algo == MultiExpAlgo::kStraus || max_bits == 0) {
    straus_range(mont, bases, exps, begin, end, out);
    return;
  }
  pippenger_range(mont, bases, exps, begin, end, best_c, out);
}

}  // namespace

BigInt multi_exp(const Montgomery& mont, const std::vector<BigInt>& bases,
                 const std::vector<BigInt>& exps, std::size_t parallelism,
                 MultiExpAlgo algo) {
  if (bases.size() != exps.size()) {
    throw ParamError("multi_exp: bases/exps size mismatch");
  }
  for (const BigInt& e : exps) {
    if (e.is_negative()) throw ParamError("multi_exp: negative exponent");
  }
  if (bases.empty()) return BigInt(1).mod(mont.modulus());

  const std::size_t k = mont.limb_count();
  const std::size_t chunks =
      chunk_count(bases.size(), resolve_parallelism(parallelism));
  // Partials live in one caller-held lease; pool workers write disjoint
  // k-limb slices (the lease is taken and dropped on this thread).
  ScratchArena::Lease lease =
      ScratchArena::local().take(chunks * k + mont.scratch_limbs());
  Limb* partials = lease.data();
  Limb* scratch = partials + chunks * k;
  parallel_chunks(bases.size(), parallelism,
                  [&](std::size_t chunk, std::size_t begin, std::size_t end) {
                    multi_exp_range(mont, bases, exps, begin, end, algo,
                                    partials + chunk * k);
                  });
  for (std::size_t c = 1; c < chunks; ++c) {
    mont.mul_into(partials, partials, partials + c * k, scratch);
  }
  BigInt result;
  mont.from_mont_into(result, partials, scratch);
  return result;
}

BigInt mont_product(const Montgomery& mont, const std::vector<BigInt>& values,
                    std::size_t parallelism) {
  if (values.empty()) return BigInt(1).mod(mont.modulus());
  const std::size_t k = mont.limb_count();
  const std::size_t chunks =
      chunk_count(values.size(), resolve_parallelism(parallelism));
  ScratchArena::Lease lease =
      ScratchArena::local().take(chunks * k + mont.scratch_limbs());
  Limb* partials = lease.data();
  Limb* scratch = partials + chunks * k;
  parallel_chunks(
      values.size(), parallelism,
      [&](std::size_t chunk, std::size_t begin, std::size_t end) {
        ScratchArena::Lease worker_lease =
            ScratchArena::local().take(k + mont.scratch_limbs());
        Limb* v = worker_lease.data();
        Limb* wscratch = v + k;
        Limb* acc = partials + chunk * k;
        mont.to_mont_into(acc, values[begin], wscratch);
        for (std::size_t i = begin + 1; i < end; ++i) {
          mont.to_mont_into(v, values[i], wscratch);
          mont.mul_into(acc, acc, v, wscratch);
        }
      });
  for (std::size_t c = 1; c < chunks; ++c) {
    mont.mul_into(partials, partials, partials + c * k, scratch);
  }
  BigInt result;
  mont.from_mont_into(result, partials, scratch);
  return result;
}

}  // namespace ice::bn
