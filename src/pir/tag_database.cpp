#include "pir/tag_database.h"

#include <cstring>

#include "common/error.h"

namespace ice::pir {

TagDatabase::TagDatabase(std::size_t tag_bits)
    : tag_bits_(tag_bits), words_per_tag_((tag_bits + 63) / 64) {
  if (tag_bits == 0) throw ParamError("TagDatabase: tag_bits must be >= 1");
}

std::size_t TagDatabase::add(const bn::BigInt& tag) {
  if (tag.is_negative() || tag.bit_length() > tag_bits_) {
    throw ParamError("TagDatabase::add: tag out of range for K bits");
  }
  rows_.resize(rows_.size() + words_per_tag_, 0);
  std::uint64_t* dst = rows_.data() + n_ * words_per_tag_;
  const auto& limbs = tag.limbs();
  for (std::size_t w = 0; w < limbs.size(); ++w) dst[w] = limbs[w];
  return n_++;
}

void TagDatabase::update(std::size_t index, const bn::BigInt& tag) {
  if (index >= n_) throw ParamError("TagDatabase::update: bad index");
  if (tag.is_negative() || tag.bit_length() > tag_bits_) {
    throw ParamError("TagDatabase::update: tag out of range for K bits");
  }
  std::lock_guard lock(delta_mu_);
  const auto idx32 = static_cast<std::uint32_t>(index);
  auto [it, inserted] = staged_slot_.try_emplace(idx32, staged_index_.size());
  if (inserted) {
    staged_index_.push_back(idx32);
    staged_rows_.resize(staged_rows_.size() + words_per_tag_, 0);
  }
  std::uint64_t* dst = staged_rows_.data() + it->second * words_per_tag_;
  for (std::size_t w = 0; w < words_per_tag_; ++w) dst[w] = 0;
  const auto& limbs = tag.limbs();
  for (std::size_t w = 0; w < limbs.size(); ++w) dst[w] = limbs[w];
}

EpochMergeStats TagDatabase::close_epoch() {
  std::lock_guard delta_lock(delta_mu_);
  EpochMergeStats out;
  out.epoch = epoch_;
  if (staged_index_.empty()) return out;

  for (std::size_t slot = 0; slot < staged_index_.size(); ++slot) {
    std::memcpy(rows_.data() + staged_index_[slot] * words_per_tag_,
                staged_rows_.data() + slot * words_per_tag_,
                words_per_tag_ * sizeof(std::uint64_t));
  }
  out.rows_merged = staged_index_.size();

  staged_index_.clear();
  staged_rows_.clear();
  staged_slot_.clear();
  ++epoch_;
  ++stats_.epochs_closed;
  stats_.rows_merged += out.rows_merged;
  out.closed = true;
  out.epoch = epoch_;
  return out;
}

std::size_t TagDatabase::staged_updates() const {
  std::lock_guard lock(delta_mu_);
  return staged_index_.size();
}

std::vector<std::pair<std::uint32_t, bn::BigInt>> TagDatabase::staged_snapshot()
    const {
  std::lock_guard lock(delta_mu_);
  std::vector<std::pair<std::uint32_t, bn::BigInt>> out;
  out.reserve(staged_index_.size());
  for (std::size_t slot = 0; slot < staged_index_.size(); ++slot) {
    out.emplace_back(staged_index_[slot],
                     bn::BigInt::from_limbs(
                         staged_rows_.data() + slot * words_per_tag_,
                         words_per_tag_));
  }
  return out;
}

EpochStats TagDatabase::epoch_stats() const {
  EpochStats out = stats_;
  out.staged_rows = staged_updates();
  return out;
}

bool TagDatabase::bit(std::size_t i, std::size_t pi) const {
  if (i >= n_ || pi >= tag_bits_) {
    throw ParamError("TagDatabase::bit: out of range");
  }
  return (row(i)[pi / 64] >> (pi % 64)) & 1u;
}

bn::BigInt TagDatabase::tag(std::size_t i) const {
  if (i >= n_) throw ParamError("TagDatabase::tag: bad index");
  const std::uint64_t* r = row(i);
  return bn::BigInt::from_limbs(r, words_per_tag_);
}

}  // namespace ice::pir
