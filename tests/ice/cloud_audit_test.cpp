// Tests for the cloud-side sampled PDP audit.
#include "ice/cloud_audit.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "ice/tpa_service.h"
#include "mec/corruption.h"
#include "net/channel.h"
#include "support/ice_fixtures.h"

namespace ice::proto {
namespace {

class CloudAuditWorld {
 public:
  explicit CloudAuditWorld(std::size_t n)
      : params_(ice::testing::test_params(64)),
        keys_(ice::testing::test_keypair_256()),
        csp_(mec::BlockStore::synthetic(n, 64, 66)),
        csp_channel_(csp_),
        user_tpa0_(tpa0_),
        user_tpa1_(tpa1_),
        user_(params_, keys_, user_tpa0_, user_tpa1_) {
    std::vector<Bytes> blocks;
    for (std::size_t i = 0; i < csp_.store().size(); ++i) {
      blocks.push_back(csp_.store().block(i));
    }
    user_.setup_file(blocks);
  }

  void corrupt_cloud_block(std::size_t index) {
    SplitMix64 rng(index);
    Bytes block = csp_.store().block(index);
    mec::corrupt_block(block, mec::CorruptionKind::kBitFlip, rng);
    csp_.store_for_corruption().update_block(index, std::move(block));
  }

  ProtocolParams params_;
  KeyPair keys_;
  CspService csp_;
  TpaService tpa0_;
  TpaService tpa1_;
  net::InMemoryChannel csp_channel_;
  net::InMemoryChannel user_tpa0_;
  net::InMemoryChannel user_tpa1_;
  UserClient user_;
  SplitMix64 gen_{0xc10d};
  bn::Rng64Adapter<SplitMix64> rng_{gen_};
};

TEST(CloudAuditTest, HonestCloudPasses) {
  CloudAuditWorld w(30);
  for (std::size_t sample : {1u, 5u, 30u}) {
    const auto result = audit_cloud(w.user_, w.csp_channel_, sample, w.rng_);
    EXPECT_TRUE(result.pass) << "sample=" << sample;
    EXPECT_EQ(result.sampled.size(), sample);
  }
}

TEST(CloudAuditTest, SampleIsDistinctAndInRange) {
  CloudAuditWorld w(20);
  const auto result = audit_cloud(w.user_, w.csp_channel_, 10, w.rng_);
  for (std::size_t i = 0; i < result.sampled.size(); ++i) {
    EXPECT_LT(result.sampled[i], 20u);
    if (i > 0) {
      EXPECT_LT(result.sampled[i - 1], result.sampled[i]);
    }
  }
}

TEST(CloudAuditTest, FullSampleAlwaysDetects) {
  CloudAuditWorld w(20);
  w.corrupt_cloud_block(13);
  const auto result = audit_cloud(w.user_, w.csp_channel_, 20, w.rng_);
  EXPECT_FALSE(result.pass);
}

TEST(CloudAuditTest, DetectionIffCorruptedBlockSampled) {
  CloudAuditWorld w(20);
  w.corrupt_cloud_block(7);
  for (int trial = 0; trial < 10; ++trial) {
    const auto result = audit_cloud(w.user_, w.csp_channel_, 5, w.rng_);
    const bool sampled_bad =
        std::find(result.sampled.begin(), result.sampled.end(), 7u) !=
        result.sampled.end();
    EXPECT_EQ(result.pass, !sampled_bad);
  }
}

TEST(CloudAuditTest, ParamValidation) {
  CloudAuditWorld w(10);
  EXPECT_THROW(audit_cloud(w.user_, w.csp_channel_, 0, w.rng_), ParamError);
  EXPECT_THROW(audit_cloud(w.user_, w.csp_channel_, 11, w.rng_), ParamError);
}

TEST(SamplingProbabilityTest, KnownValues) {
  EXPECT_DOUBLE_EQ(sampling_detection_probability(100, 0, 10), 0.0);
  EXPECT_DOUBLE_EQ(sampling_detection_probability(100, 5, 0), 0.0);
  EXPECT_DOUBLE_EQ(sampling_detection_probability(100, 100, 1), 1.0);
  // c + corrupted > n forces a hit.
  EXPECT_DOUBLE_EQ(sampling_detection_probability(10, 6, 5), 1.0);
  // One bad block, sample 1 of n: probability 1/n.
  EXPECT_NEAR(sampling_detection_probability(100, 1, 1), 0.01, 1e-12);
  // Classic PDP quote: 1% corruption, 460 samples => ~99% detection.
  EXPECT_NEAR(sampling_detection_probability(10000, 100, 460), 0.99, 0.005);
}

TEST(SamplingProbabilityTest, MonotoneInSampleSize) {
  double prev = 0.0;
  for (std::size_t c : {1u, 5u, 10u, 20u, 40u}) {
    const double p = sampling_detection_probability(100, 3, c);
    EXPECT_GE(p, prev);
    prev = p;
  }
  EXPECT_GT(prev, 0.7);
}

}  // namespace
}  // namespace ice::proto
