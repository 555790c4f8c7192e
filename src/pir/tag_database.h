// Epoch-versioned fixed-width bit database of verification tags held by
// each TPA.
//
// Tag T_i is a K-bit value (K = |N|, the RSA modulus width). TPASetup turns
// the tag set into K polynomials F_1..F_K over GF(4) — polynomial F_pi has a
// monomial for every i whose pi-th tag bit is set (paper Eq. 1). This class
// stores the bits row-major, 64-bit words per tag, which is the layout the
// bitsliced PIR sweep streams (the paper's per-bitplane index lists M_pi are
// rebuilt from these rows only by the reference evaluator).
//
// Dynamic data runs on explicit epochs (DESIGN.md §15). The readable state
// is the epoch-`t` snapshot; `update()` STAGES a replacement row into a
// delta plane that becomes visible only when `close_epoch()` merges it —
// so audits read a frozen database while an update storm accumulates into
// `t+1`, with no writer/reader serialization requirement on the hot path:
//   * readers (bit/tag/row/rows_data) always see the base rows;
//   * `update()` is internally synchronized and touches only the delta, so
//     any number of updates may race any number of readers;
//   * `close_epoch()` copies the staged rows into the base — one O(U·w)
//     memcpy pass. The CALLER must serialize close_epoch (and add, which
//     may reallocate the base) against readers; pir::ShardedTagServer does
//     so with its structure lock.
#pragma once

#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "bignum/bigint.h"
#include "common/bytes.h"

namespace ice::pir {

/// What one close_epoch() did.
struct EpochMergeStats {
  bool closed = false;          // false: nothing staged, epoch unchanged
  std::uint64_t epoch = 0;      // epoch after the call
  std::size_t rows_merged = 0;  // distinct staged rows applied
};

/// Lifetime counters for the epoch engine (read them only while no
/// close_epoch is concurrent — i.e. under the same reader discipline as
/// any other read).
struct EpochStats {
  std::uint64_t epochs_closed = 0;
  std::uint64_t rows_merged = 0;  // cumulative across closes
  std::uint64_t staged_rows = 0;  // currently staged for the next epoch
};

class TagDatabase {
 public:
  /// `tag_bits` is K; every stored tag must fit in K bits.
  explicit TagDatabase(std::size_t tag_bits);

  /// Appends a tag (interpreted as a K-bit integer) to the BASE state and
  /// returns its index. Load/rebuild path: the caller must serialize it
  /// against readers (rows_ may reallocate).
  std::size_t add(const bn::BigInt& tag);

  /// Stages a replacement for the tag at `index` (dynamic data: block
  /// updates re-tag) into the NEXT epoch. Internally synchronized; safe
  /// against concurrent readers and other update() calls. Invisible to
  /// every read surface until close_epoch(). Restaging an index overwrites
  /// its pending row.
  void update(std::size_t index, const bn::BigInt& tag);

  /// Merges every staged row into the base state and advances the epoch.
  /// Caller must serialize against readers. No-op (closed=false) when
  /// nothing is staged.
  EpochMergeStats close_epoch();

  /// Epochs closed so far (the content version of the readable snapshot).
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }
  /// Distinct rows staged for the next epoch. Internally synchronized.
  [[nodiscard]] std::size_t staged_updates() const;
  /// Staged (index, tag) pairs, insertion-ordered. Used by the sharded
  /// server to carry pending updates across a shard rebuild.
  [[nodiscard]] std::vector<std::pair<std::uint32_t, bn::BigInt>>
  staged_snapshot() const;
  [[nodiscard]] EpochStats epoch_stats() const;

  [[nodiscard]] std::size_t size() const { return n_; }
  [[nodiscard]] std::size_t tag_bits() const { return tag_bits_; }
  [[nodiscard]] std::size_t words_per_tag() const { return words_per_tag_; }

  /// Numeric bit `pi` of tag `i` (epoch-t snapshot).
  [[nodiscard]] bool bit(std::size_t i, std::size_t pi) const;

  /// Tag `i` reconstructed as an integer (epoch-t snapshot).
  [[nodiscard]] bn::BigInt tag(std::size_t i) const;

  /// Row of 64-bit words (little-endian bit order) for tag `i`.
  [[nodiscard]] const std::uint64_t* row(std::size_t i) const {
    return rows_.data() + i * words_per_tag_;
  }

  /// All rows, contiguous (row i at offset i * words_per_tag()). The fused
  /// batch sweep streams this once per query batch.
  [[nodiscard]] const std::uint64_t* rows_data() const {
    return rows_.data();
  }

 private:
  std::size_t tag_bits_;
  std::size_t words_per_tag_;
  std::size_t n_ = 0;
  std::vector<std::uint64_t> rows_;  // n_ * words_per_tag_

  // Delta plane: rows staged for epoch_ + 1. Guarded by delta_mu_ (staging
  // races readers and other staging; close_epoch drains it under the
  // caller's exclusivity plus this lock).
  mutable std::mutex delta_mu_;
  std::vector<std::uint32_t> staged_index_;            // insertion order
  std::vector<std::uint64_t> staged_rows_;             // slot-major rows
  std::unordered_map<std::uint32_t, std::size_t> staged_slot_;

  std::uint64_t epoch_ = 0;
  EpochStats stats_;  // cumulative counters (staged derived live)
};

}  // namespace ice::pir
