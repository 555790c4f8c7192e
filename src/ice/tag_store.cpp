#include "ice/tag_store.h"

#include "common/error.h"

namespace ice::proto {
namespace {

std::vector<bn::BigInt> checked(std::vector<bn::BigInt> tags) {
  if (tags.empty()) throw ParamError("TagStore: empty tag set");
  return tags;
}

}  // namespace

TagStore::TagStore(const ProtocolParams& params,
                   std::vector<bn::BigInt> tags)
    : server_(params.tag_bits(), checked(std::move(tags)),
              params.shard_budget, params.parallelism) {}

SnapshotPin TagStore::pin() const {
  pins_taken_.fetch_add(1, std::memory_order_relaxed);
  auto latch = latch_;  // keep the counter alive past the store if needed
  latch->fetch_add(1, std::memory_order_acq_rel);
  return SnapshotPin(static_cast<const void*>(latch.get()),
                     [latch](const void*) {
                       latch->fetch_sub(1, std::memory_order_acq_rel);
                     });
}

pir::EpochCloseResult TagStore::close_epoch(bool force) {
  if (!force && pins_active() > 0) {
    closes_skipped_.fetch_add(1, std::memory_order_relaxed);
    pir::EpochCloseResult out;
    out.epoch = server_.epoch();
    return out;  // closed = false: audits in flight, caller retries later
  }
  return server_.close_epoch();
}

StoreEpochStats TagStore::epoch_stats() const {
  StoreEpochStats out;
  out.db = server_.epoch_stats();
  out.pins_taken = pins_taken_.load(std::memory_order_relaxed);
  out.pins_active = pins_active();
  out.closes_skipped = closes_skipped_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace ice::proto
