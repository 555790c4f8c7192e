// gtest helpers comparing PIR responses entry by entry, so a mismatch names
// the shard and point it sits at.
#pragma once

#include <gtest/gtest.h>

#include <string>

#include "pir/messages.h"

namespace ice::testing {

inline void expect_same_response(const pir::PirResponse& got,
                                 const pir::PirResponse& want,
                                 const std::string& where) {
  ASSERT_EQ(got.entries.size(), want.entries.size()) << where;
  for (std::size_t l = 0; l < want.entries.size(); ++l) {
    EXPECT_EQ(got.entries[l].values, want.entries[l].values)
        << where << " point " << l;
    EXPECT_EQ(got.entries[l].gradients, want.entries[l].gradients)
        << where << " point " << l;
  }
}

inline void expect_same_sharded(const pir::ShardedPirResponse& got,
                                const pir::ShardedPirResponse& want,
                                const std::string& where) {
  ASSERT_EQ(got.shards.size(), want.shards.size()) << where;
  for (std::size_t s = 0; s < want.shards.size(); ++s) {
    EXPECT_EQ(got.shards[s].shard, want.shards[s].shard) << where;
    expect_same_response(got.shards[s].response, want.shards[s].response,
                         where + " shard " + std::to_string(s));
  }
}

}  // namespace ice::testing
