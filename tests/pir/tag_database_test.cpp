// Tests for the TPA tag database (rows + epoch staging) and for the
// reference construction of its bitplane (matrix) representation M_pi.
#include "pir/tag_database.h"

#include <gtest/gtest.h>

#include "bignum/random.h"
#include "common/error.h"
#include "common/rng.h"
#include "pir/client.h"
#include "pir_reference.h"
#include "support/pir_compare.h"

namespace ice::pir {
namespace {

TEST(TagDatabaseTest, RejectsZeroWidth) {
  EXPECT_THROW(TagDatabase(0), ParamError);
}

TEST(TagDatabaseTest, AddAndReadBack) {
  TagDatabase db(64);
  EXPECT_EQ(db.add(bn::BigInt(0x1234)), 0u);
  EXPECT_EQ(db.add(bn::BigInt(0)), 1u);
  EXPECT_EQ(db.size(), 2u);
  EXPECT_EQ(db.tag(0), bn::BigInt(0x1234));
  EXPECT_EQ(db.tag(1), bn::BigInt(0));
}

TEST(TagDatabaseTest, RejectsOversizedTag) {
  TagDatabase db(8);
  EXPECT_THROW(db.add(bn::BigInt(256)), ParamError);
  EXPECT_NO_THROW(db.add(bn::BigInt(255)));
  EXPECT_THROW(db.add(bn::BigInt(-1)), ParamError);
}

TEST(TagDatabaseTest, BitsMatchInteger) {
  TagDatabase db(80);
  const bn::BigInt tag = bn::BigInt::from_hex("a5a5deadbeef12345678");
  db.add(tag);
  for (std::size_t pi = 0; pi < 80; ++pi) {
    EXPECT_EQ(db.bit(0, pi), tag.bit(pi)) << "bit " << pi;
  }
}

TEST(TagDatabaseTest, OutOfRangeAccessThrows) {
  TagDatabase db(16);
  db.add(bn::BigInt(1));
  EXPECT_THROW((void)db.bit(1, 0), ParamError);
  EXPECT_THROW((void)db.bit(0, 16), ParamError);
  EXPECT_THROW((void)db.tag(2), ParamError);
  EXPECT_THROW(db.update(1, bn::BigInt(2)), ParamError);
}

TEST(TagDatabaseTest, PlanesListSetBits) {
  TagDatabase db(8);
  db.add(bn::BigInt(0b00000001));  // index 0: bit 0
  db.add(bn::BigInt(0b00000011));  // index 1: bits 0,1
  db.add(bn::BigInt(0b10000000));  // index 2: bit 7
  const auto lists = reference::build_plane_lists(db);
  ASSERT_EQ(lists.size(), 8u);
  EXPECT_EQ(lists[0], (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(lists[1], (std::vector<std::uint32_t>{1}));
  EXPECT_EQ(lists[7], (std::vector<std::uint32_t>{2}));
  EXPECT_TRUE(lists[5].empty());
}

// An update STAGES into the next epoch: invisible to every read surface
// (tag, bit, the rows the PIR sweep streams) until close_epoch().
TEST(TagDatabaseTest, StagedUpdateInvisibleUntilClose) {
  TagDatabase db(8);
  db.add(bn::BigInt(0b1));
  db.add(bn::BigInt(0b100));
  db.update(0, bn::BigInt(0b10));
  // Snapshot isolation: the epoch-t read surface is unchanged.
  EXPECT_EQ(db.tag(0), bn::BigInt(0b1));
  EXPECT_TRUE(db.bit(0, 0));
  EXPECT_FALSE(db.bit(0, 1));
  EXPECT_EQ(db.row(0)[0], 0b1u);
  EXPECT_EQ(db.rows_data()[1], 0b100u);
  EXPECT_EQ(db.staged_updates(), 1u);

  const EpochMergeStats merged = db.close_epoch();
  EXPECT_TRUE(merged.closed);
  EXPECT_EQ(merged.epoch, 1u);
  EXPECT_EQ(merged.rows_merged, 1u);
  EXPECT_EQ(db.tag(0), bn::BigInt(0b10));
  EXPECT_FALSE(db.bit(0, 0));
  EXPECT_TRUE(db.bit(0, 1));
  EXPECT_EQ(db.rows_data()[0], 0b10u);
  EXPECT_EQ(db.row(1)[0], 0b100u);  // untouched neighbour
  EXPECT_EQ(db.staged_updates(), 0u);
}

TEST(TagDatabaseTest, RestagingAnIndexOverwritesItsPendingRow) {
  TagDatabase db(8);
  db.add(bn::BigInt(1));
  db.add(bn::BigInt(2));
  db.update(0, bn::BigInt(7));
  db.update(0, bn::BigInt(9));  // restage: overwrites, no second slot
  db.update(1, bn::BigInt(5));
  EXPECT_EQ(db.staged_updates(), 2u);

  const auto staged = db.staged_snapshot();
  ASSERT_EQ(staged.size(), 2u);
  EXPECT_EQ(staged[0].first, 0u);
  EXPECT_EQ(staged[0].second, bn::BigInt(9));
  EXPECT_EQ(staged[1].first, 1u);
  EXPECT_EQ(staged[1].second, bn::BigInt(5));

  const EpochMergeStats merged = db.close_epoch();
  EXPECT_EQ(merged.rows_merged, 2u);  // distinct rows, not update calls
  EXPECT_EQ(db.tag(0), bn::BigInt(9));
  EXPECT_EQ(db.tag(1), bn::BigInt(5));
}

TEST(TagDatabaseTest, EmptyCloseIsANoOp) {
  TagDatabase db(8);
  db.add(bn::BigInt(1));
  const EpochMergeStats merged = db.close_epoch();
  EXPECT_FALSE(merged.closed);
  EXPECT_EQ(merged.rows_merged, 0u);
  EXPECT_EQ(db.epoch(), 0u);
  EXPECT_EQ(db.epoch_stats().epochs_closed, 0u);
}

TEST(TagDatabaseTest, PlanesConsistentWithBitsRandomized) {
  SplitMix64 gen(2024);
  bn::Rng64Adapter rng(gen);
  TagDatabase db(192);
  const std::size_t n = 50;
  for (std::size_t i = 0; i < n; ++i) {
    db.add(bn::random_bits(rng, 1 + gen.below(192)));
  }
  const auto lists = reference::build_plane_lists(db);
  for (std::size_t pi = 0; pi < 192; ++pi) {
    std::vector<std::uint32_t> expect;
    for (std::size_t i = 0; i < n; ++i) {
      if (db.bit(i, pi)) expect.push_back(static_cast<std::uint32_t>(i));
    }
    EXPECT_EQ(lists[pi], expect) << "plane " << pi;
  }
}

TEST(TagDatabaseTest, RowWordsMatchLimbs) {
  TagDatabase db(128);
  const bn::BigInt tag = bn::BigInt::from_hex("0123456789abcdefdeadbeefcafebabe");
  db.add(tag);
  const std::uint64_t* r = db.row(0);
  EXPECT_EQ(r[0], tag.limbs()[0]);
  EXPECT_EQ(r[1], tag.limbs()[1]);
}

// The reference matrix evaluator over plane lists built from the readable
// snapshot equals the term-by-term naive evaluator before any close, while
// updates are staged but unmerged (both still answer the epoch-t rows), and
// after each of several closes — and a retrieval decodes the old tag until
// the close, the replacement after it.
TEST(TagDatabaseTest, ReferenceMatrixMatchesNaiveAcrossEpochCloses) {
  SplitMix64 gen(0xeb0c);
  bn::Rng64Adapter rng(gen);
  const std::size_t n = 60, tag_bits = 96;
  TagDatabase db(tag_bits);
  for (std::size_t i = 0; i < n; ++i) db.add(bn::random_bits(rng, tag_bits));
  const Embedding emb(n);
  const PirClient client(emb, tag_bits);

  const auto check_agree = [&](const char* when, int round) {
    const auto lists = reference::build_plane_lists(db);
    std::vector<std::size_t> wanted = {gen.below(n), gen.below(n)};
    const auto enc = client.encode(wanted, rng);
    for (const PirQuery& query : enc.queries) {
      ice::testing::expect_same_response(
          reference::matrix_respond(lists, emb, query),
          reference::naive_respond(db, emb, query),
          when + (" round " + std::to_string(round)));
    }
  };
  const auto retrieve = [&](std::size_t idx) {
    const auto lists = reference::build_plane_lists(db);
    std::vector<std::size_t> wanted = {idx};
    const auto enc = client.encode(wanted, rng);
    return client.decode(
        enc.secrets, reference::matrix_respond(lists, emb, enc.queries[0]),
        reference::matrix_respond(lists, emb, enc.queries[1]))[0];
  };

  check_agree("initial", 0);
  for (int round = 1; round <= 3; ++round) {
    const std::size_t target = gen.below(n);
    const bn::BigInt before = db.tag(target);
    const bn::BigInt replacement = bn::random_bits(rng, tag_bits);
    db.update(target, replacement);
    for (int u = 0; u < 7; ++u) {
      const std::size_t other = gen.below(n);
      if (other != target) db.update(other, bn::random_bits(rng, tag_bits));
    }
    check_agree("staged", round);
    EXPECT_EQ(retrieve(target), before) << "staged row leaked";
    ASSERT_TRUE(db.close_epoch().closed);
    check_agree("closed", round);
    EXPECT_EQ(retrieve(target), replacement) << "round " << round;
  }
  EXPECT_EQ(db.epoch(), 3u);
}

}  // namespace
}  // namespace ice::pir
