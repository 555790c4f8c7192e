// The concurrent ICE-batch round (UserClient::audit_edges_batch): the J
// batch_challenge calls run at once, beside the union retrieval. Pinned for
// J in {1, 2, 4, 7} (7 exceeds a 4-worker pool): the concurrent round keeps
// the serial round's verdicts and per-channel call counts, still catches a
// cheating edge, and reports a failing edge only once every call and the
// retrieval have finished, the lowest-indexed edge's error first. The same
// client then audits cleanly.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "common/rng.h"
#include "ice/csp_service.h"
#include "ice/edge_service.h"
#include "ice/tpa_service.h"
#include "ice/user_client.h"
#include "ice/wire.h"
#include "mec/corruption.h"
#include "net/channel.h"
#include "support/ice_fixtures.h"

namespace ice::proto {
namespace {

/// Forwards to `inner`, counting per method the calls that have returned
/// or thrown; can stall every call first, or fail one method outright.
class CountingChannel final : public net::RpcChannel {
 public:
  explicit CountingChannel(net::RpcChannel& inner,
                           std::chrono::milliseconds delay = {},
                           std::uint16_t fail_method = 0)
      : inner_(&inner), delay_(delay), fail_method_(fail_method) {}

  Bytes call(std::uint16_t method, BytesView request) override {
    std::this_thread::sleep_for(delay_);
    struct Finish {
      std::atomic<int>& count;
      ~Finish() { count.fetch_add(1); }
    } finish{finished_[method]};
    if (method == fail_method_) {
      throw TransportError("CountingChannel: injected failure");
    }
    return inner_->call(method, request);
  }

  [[nodiscard]] int finished(std::uint16_t method) const {
    return finished_[method].load();
  }
  [[nodiscard]] const net::ChannelStats& stats() const override {
    return inner_->stats();
  }
  void reset_stats() override { inner_->reset_stats(); }

 private:
  net::RpcChannel* inner_;
  std::chrono::milliseconds delay_;
  std::uint16_t fail_method_;
  std::array<std::atomic<int>, 512> finished_{};
};

constexpr std::size_t kBlocks = 48;
constexpr std::size_t kBlockBytes = 64;

/// CSP, two TPAs, `edges` honest edges with overlapping caches, one edge
/// with no TPA channel (its batch_challenge fails kFailedPrecondition), and
/// one user whose fan-out runs at `parallelism`. tpa1 answers slowly, so a
/// retrieval is still in flight when a failing edge gives up.
class Deployment {
 public:
  Deployment(std::size_t edges, std::size_t parallelism)
      : params_(make_params(parallelism)),
        csp_(mec::BlockStore::synthetic(kBlocks, kBlockBytes, 777)),
        tpa0_raw_(tpa0_svc_),
        tpa1_raw_(tpa1_svc_),
        tpa0_(tpa0_raw_),
        tpa1_(tpa1_raw_, std::chrono::milliseconds(30)) {
    for (std::size_t j = 0; j <= edges; ++j) {
      const bool broken = j == edges;
      csp_links_.push_back(std::make_unique<net::InMemoryChannel>(csp_));
      tpa_links_.push_back(std::make_unique<net::InMemoryChannel>(tpa0_svc_));
      edges_.push_back(std::make_unique<EdgeService>(
          static_cast<std::uint32_t>(j), params_,
          ice::testing::test_keypair_256().pk,
          mec::EdgeCache(8, mec::EvictionPolicy::kLru), *csp_links_.back(),
          broken ? nullptr : tpa_links_.back().get()));
      // Edge j caches blocks 4j .. 4j+5: neighbours share two blocks.
      std::vector<std::size_t> cached;
      for (std::size_t k = 0; k < 6; ++k) cached.push_back(4 * j + k);
      edges_.back()->pre_download(cached);
      edge_raw_.push_back(std::make_unique<net::InMemoryChannel>(*edges_[j]));
      edge_links_.push_back(std::make_unique<CountingChannel>(*edge_raw_[j]));
    }
    user_ = std::make_unique<UserClient>(
        params_, ice::testing::test_keypair_256(), tpa0_, tpa1_);
    std::vector<Bytes> blocks;
    for (std::size_t i = 0; i < kBlocks; ++i) {
      blocks.push_back(csp_.store().block(i));
    }
    user_->setup_file(blocks);
  }

  static ProtocolParams make_params(std::size_t parallelism) {
    ProtocolParams p = ice::testing::test_params(kBlockBytes);
    p.parallelism = parallelism;
    return p;
  }

  /// The honest edges' user-side channels, in index order.
  std::vector<net::RpcChannel*> honest() const {
    std::vector<net::RpcChannel*> out;
    for (std::size_t j = 0; j + 1 < edge_links_.size(); ++j) {
      out.push_back(edge_links_[j].get());
    }
    return out;
  }

  /// Every user-side and edge-side channel, for call-count comparisons.
  std::vector<const net::RpcChannel*> all_channels() const {
    std::vector<const net::RpcChannel*> out = {&tpa0_, &tpa1_};
    for (const auto& ch : edge_links_) out.push_back(ch.get());
    for (const auto& ch : tpa_links_) out.push_back(ch.get());
    return out;
  }

  ProtocolParams params_;
  CspService csp_;
  TpaService tpa0_svc_;
  TpaService tpa1_svc_;
  net::InMemoryChannel tpa0_raw_;
  net::InMemoryChannel tpa1_raw_;
  CountingChannel tpa0_;
  CountingChannel tpa1_;
  std::vector<std::unique_ptr<net::InMemoryChannel>> csp_links_;
  std::vector<std::unique_ptr<net::InMemoryChannel>> tpa_links_;
  std::vector<std::unique_ptr<EdgeService>> edges_;
  std::vector<std::unique_ptr<net::InMemoryChannel>> edge_raw_;
  std::vector<std::unique_ptr<CountingChannel>> edge_links_;
  std::unique_ptr<UserClient> user_;
};

class BatchFanoutTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BatchFanoutTest, ConcurrentRoundMatchesSerialVerdictsAndCalls) {
  const std::size_t edges = GetParam();
  Deployment serial(edges, 1);
  Deployment concurrent(edges, 0);
  for (Deployment* d : {&serial, &concurrent}) {
    EXPECT_TRUE(d->user_->audit_edges_batch(d->honest()));
    // One cheating edge fails the whole round.
    SplitMix64 rng(5);
    mec::corrupt_random_blocks(d->edges_[edges - 1]->cache_for_corruption(),
                               1, mec::CorruptionKind::kBitFlip, rng);
    EXPECT_FALSE(d->user_->audit_edges_batch(d->honest()));
  }
  const auto a = serial.all_channels();
  const auto b = concurrent.all_channels();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t c = 0; c < a.size(); ++c) {
    EXPECT_EQ(a[c]->stats().calls.load(), b[c]->stats().calls.load())
        << "channel " << c;
  }
}

TEST_P(BatchFanoutTest, FailingEdgeSurfacesAfterEverythingJoined) {
  const std::size_t edges = GetParam();
  Deployment d(edges, 0);
  // Round: the broken edge first, then honest edges; for J >= 2 the last
  // one's link throws locally, a second, higher-indexed failure.
  std::vector<net::RpcChannel*> round = {d.edge_links_[edges].get()};
  std::unique_ptr<CountingChannel> failing;
  if (edges >= 2) {
    for (std::size_t j = 1; j + 1 < edges; ++j) {
      round.push_back(d.edge_links_[j].get());
    }
    failing = std::make_unique<CountingChannel>(
        *d.edge_raw_[edges - 1], std::chrono::milliseconds(0),
        kEdgeBatchChallenge);
    round.push_back(failing.get());
  }
  const int shard_queries0 = d.tpa0_.finished(kTpaShardQuery);
  const int shard_queries1 = d.tpa1_.finished(kTpaShardQuery);
  try {
    (void)d.user_->audit_edges_batch(round);
    FAIL() << "a round with a broken edge must throw";
  } catch (const net::RemoteError& e) {
    EXPECT_EQ(e.status(), net::Status::kFailedPrecondition) << e.what();
  }
  // Every challenge and both halves of the retrieval had finished.
  for (net::RpcChannel* ch : round) {
    EXPECT_EQ(static_cast<CountingChannel*>(ch)->finished(kEdgeBatchChallenge),
              1);
  }
  EXPECT_EQ(d.tpa0_.finished(kTpaShardQuery), shard_queries0 + 1);
  EXPECT_EQ(d.tpa1_.finished(kTpaShardQuery), shard_queries1 + 1);

  // The same client then runs a clean round.
  EXPECT_TRUE(d.user_->audit_edges_batch(d.honest()));
}

INSTANTIATE_TEST_SUITE_P(Edges, BatchFanoutTest,
                         ::testing::Values(std::size_t{1}, std::size_t{2},
                                           std::size_t{4}, std::size_t{7}),
                         [](const auto& info) {
                           return "J" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace ice::proto
