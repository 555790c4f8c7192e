// Steady-state allocation tests for the audit hot paths.
//
// This binary replaces global operator new/delete with a counting hook
// (which is why it is its own test target: the hook is process-wide). Each
// test warms a hot path until every thread-local cache — BigInt SBO spill
// buffers, ScratchArena free lists, wire BufferPools, thread_local event
// queues — has reached its working size, then asserts that further
// iterations perform ZERO heap allocations, in both the serial
// (parallelism = 1) and pooled (parallelism = 2) configurations. A
// regression here means an allocator round trip crept back into the loop.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "bignum/random.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "ice/protocol.h"
#include "ice/tag.h"
#include "pir/client.h"
#include "pir/server.h"
#include "support.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};

void note_alloc() {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace

void* operator new(std::size_t n) {
  note_alloc();
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  note_alloc();
  return std::malloc(n ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  note_alloc();
  return std::malloc(n ? n : 1);
}
void* operator new(std::size_t n, std::align_val_t al) {
  note_alloc();
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(al), n ? n : 1) != 0) {
    throw std::bad_alloc();
  }
  return p;
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return operator new(n, al);
}
// Out of line, so a delete-expression calls the replaced operator instead
// of a free() the compiler would pair with the new-expression's
// operator new (GCC's -Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { operator delete(p); }
void operator delete(void* p, std::align_val_t) noexcept { operator delete(p); }
void operator delete[](void* p, std::align_val_t) noexcept {
  operator delete(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  operator delete(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  operator delete(p);
}

namespace ice {
namespace {

/// Runs `f` warm-up times on this thread and on every pool worker, then
/// counts heap allocations across `iters` more runs. The count is read
/// before any gtest machinery can allocate.
template <typename F>
std::uint64_t steady_state_allocs(F&& f, int warm = 8, int iters = 4) {
  // Chunks go to whichever thread claims them first, so a thread that had
  // not yet run some chunk could meet it inside the measured window with
  // cold thread-local caches. warm_up makes every thread run every chunk.
  for (int i = 0; i < warm; ++i) f();
  shared_pool().warm_up([&] {
    for (int i = 0; i < warm; ++i) f();
  });
  g_allocs.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  for (int i = 0; i < iters; ++i) f();
  g_counting.store(false, std::memory_order_relaxed);
  return g_allocs.load(std::memory_order_relaxed);
}

class AllocTest : public ::testing::TestWithParam<std::size_t> {
 protected:
  AllocTest() : gen_(0xa110c), rng_(gen_) {}
  SplitMix64 gen_;
  bn::Rng64Adapter<SplitMix64> rng_;
};

TEST_P(AllocTest, VerifyProofIsAllocationFree) {
  const proto::KeyPair keys = bench::bench_keypair(1024);
  proto::ProtocolParams params;
  params.parallelism = GetParam();

  std::vector<bn::BigInt> tags(10);
  for (auto& t : tags) t = bn::random_below(rng_, keys.pk.n);
  proto::ChallengeSecret secret;
  // Verification reads only e: a one-rung ladder will do.
  const proto::Challenge chal = proto::make_challenge(
      proto::ChallengeLadder(keys.pk, proto::LadderShape{}), params, rng_,
      secret);
  proto::Proof proof;
  proof.p = bn::BigInt(1);

  const std::uint64_t allocs = steady_state_allocs([&] {
    (void)proto::verify_proof(keys.pk, params, tags, chal, secret, proof);
  });
  EXPECT_EQ(allocs, 0u);
}

TEST_P(AllocTest, TagAllIsAllocationFree) {
  const proto::KeyPair keys = bench::bench_keypair(1024);
  const proto::TagGenerator tagger(keys.pk);
  const std::vector<Bytes> blocks = bench::bench_blocks(8, 1024, 10);

  std::vector<bn::BigInt> out;
  const std::uint64_t allocs = steady_state_allocs(
      [&] { tagger.tag_all_into(blocks, GetParam(), out); }, 4, 2);
  EXPECT_EQ(allocs, 0u);
}

TEST_P(AllocTest, RepackTagsIsAllocationFree) {
  const proto::KeyPair keys = bench::bench_keypair(1024);
  std::vector<bn::BigInt> tags(32);
  for (auto& t : tags) t = bn::random_below(rng_, keys.pk.n);
  const bn::BigInt s_tilde = proto::draw_blinding(keys.pk, rng_);

  std::vector<bn::BigInt> out;
  const std::uint64_t allocs = steady_state_allocs(
      [&] { proto::repack_tags_into(keys.pk, tags, s_tilde, GetParam(), out); },
      4, 2);
  EXPECT_EQ(allocs, 0u);
}

TEST_P(AllocTest, FusedPirRespondIsAllocationFree) {
  const std::size_t n = 1500;
  const std::size_t tag_bits = 512;
  pir::TagDatabase db(tag_bits);
  for (std::size_t i = 0; i < n; ++i) {
    db.add(bn::random_bits(rng_, tag_bits));
  }
  const pir::Embedding emb(n);
  const pir::PirServer server(db, emb, GetParam());
  const pir::PirClient client(emb, tag_bits);

  std::vector<std::size_t> wanted;
  for (int i = 0; i < 4; ++i) wanted.push_back(gen_.below(n));
  const auto enc = client.encode(wanted, rng_);

  pir::PirResponse resp;
  const std::uint64_t allocs = steady_state_allocs(
      [&] { server.respond_into(enc.queries[0], resp); });
  EXPECT_EQ(allocs, 0u);
}

INSTANTIATE_TEST_SUITE_P(SerialAndPooled, AllocTest,
                         ::testing::Values(std::size_t{1}, std::size_t{2}),
                         [](const auto& info) {
                           return info.param == 1 ? "Serial" : "Pooled";
                         });

}  // namespace
}  // namespace ice
