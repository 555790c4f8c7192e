// Differential transport test: a service deployment served by the epoll
// reactor against an identically built in-process one, driven with scripted
// wire corpuses (method-id sweep x payload variants, a pipelined stream).
// The in-process oracle is what a server must do with one frame: hand the
// payload to the service's own handle() and send the result back as
// [u32 len][payload]. The reactor must produce that response stream byte
// for byte — it is a transport, not a reinterpretation of the protocol.
// The shared abuse corpus pins the reactor's connection fates.
#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <vector>

#include "ice/csp_service.h"
#include "ice/edge_service.h"
#include "ice/tpa_service.h"
#include "ice/wire.h"
#include "mec/block_store.h"
#include "mec/edge_cache.h"
#include "net/channel.h"
#include "net/tcp.h"
#include "support/fake_transport.h"
#include "support/ice_fixtures.h"

namespace ice::proto {
namespace {

using net::testing::AbuseCase;
using net::testing::frame_request;
using net::testing::le32;
using net::testing::RawTcpClient;
using net::testing::wire_abuse_corpus;

/// CSP + TPA state, constructed identically for every deployment. Each
/// corpus is replayed in the same order on both sides, so state evolution
/// matches too.
struct Services {
  ProtocolParams params = ice::testing::test_params(64);
  KeyPair keys = ice::testing::test_keypair_256();
  CspService csp{mec::BlockStore::synthetic(16, 64, 31337)};
  TpaService tpa;

  EdgeService make_edge(net::RpcChannel& csp_channel) const {
    return EdgeService(0, params, keys.pk,
                       mec::EdgeCache(8, mec::EvictionPolicy::kLru),
                       csp_channel, nullptr);
  }
};

/// The oracle: every service in-process, the edge reaching the CSP over an
/// InMemoryChannel, frames answered by a direct handle() call.
struct InProcess : Services {
  InProcess() : csp_channel(csp), edge(make_edge(csp_channel)) {}

  /// The service a method id belongs to (by the wire.h numbering bands).
  net::RpcHandler& handler_for(std::uint16_t method) {
    if (method < 200) return csp;
    if (method < 300) return edge;
    return tpa;
  }

  net::InMemoryChannel csp_channel;
  EdgeService edge;
};

/// The response frame a server of `service` owes for one request frame.
Bytes owed_frame(net::RpcHandler& service, std::uint16_t method,
                 BytesView payload) {
  const Bytes body = service.handle(method, payload);
  Bytes frame = le32(static_cast<std::uint32_t>(body.size()));
  frame.insert(frame.end(), body.begin(), body.end());
  return frame;
}

/// The same deployment with every service behind its own TcpServer.
struct Served : Services {
  Served()
      : csp_server(csp),
        tpa_server(tpa),
        csp_channel("127.0.0.1", csp_server.port()),
        edge(make_edge(csp_channel)),
        edge_server(edge) {}

  net::TcpServer& server_for(std::uint16_t method) {
    if (method < 200) return csp_server;
    if (method < 300) return edge_server;
    return tpa_server;
  }

  net::TcpServer csp_server;
  net::TcpServer tpa_server;
  net::TcpChannel csp_channel;
  EdgeService edge;
  net::TcpServer edge_server;
};

struct WireCase {
  std::uint16_t method;
  Bytes payload;
};

/// Method-id sweep x payload variants. Every case must behave
/// deterministically (success with deterministic output, or a decode /
/// unknown-method / state error envelope) — payloads are crafted so no
/// variant accidentally forms a valid randomized call (e.g. kTpaBatchBegin
/// returns a random blind, so nothing here decodes as its two varints).
std::vector<WireCase> scripted_corpus() {
  const std::vector<Bytes> payloads = {
      {},                                            // truncated args
      {0x00},                                        // one varint: index 0
      Bytes(8, 0xff),                                // overlong varint
      {0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b,
       0x0c, 0x0d, 0x0e, 0x0f, 0x10},                // trailing garbage
  };
  // Every registered method plus unknown ids inside each band (302 is the
  // retired single-shard tag query).
  const std::vector<std::uint16_t> methods = {
      90,  99,  kCspInfo,        kCspFetch,       kCspWriteBack,
      kCspSetKey,   kCspChallenge, 150, kEdgeRead, kEdgeWrite,
      kEdgeIndexQuery, kEdgeShareBlind, kEdgeChallenge, kEdgeBatchChallenge,
      kEdgeFlush,   kEdgeSubsetProof, 250, kTpaSetKey, kTpaStoreTags,
      302, kTpaStartAudit, kTpaSubmitRepacked, kTpaSubmitProof,
      kTpaBatchFinish, kTpaUpdateTag, kTpaShardMap, kTpaShardQuery,
      kTpaSplitShard, kTpaAppendTag, kTpaCloseEpoch, 320,
  };
  std::vector<WireCase> corpus;
  for (const auto method : methods) {
    for (const auto& payload : payloads) {
      corpus.push_back({method, payload});
    }
  }
  // Well-framed kEdgeChallenge bodies (session, e, t, L, rungs): hostile
  // ladder shapes, then a valid one for a session with no blinding.
  const KeyPair keys = ice::testing::test_keypair_256();
  const auto challenge = [](std::uint64_t t, std::uint64_t digit_bits,
                            const std::vector<bn::BigInt>& rungs) {
    net::Writer w;
    w.u64(5);
    w.bigint(bn::BigInt(3));
    w.varint(t);
    w.varint(digit_bits);
    for (const auto& h : rungs) w.bigint(h);
    return w.take();
  };
  const std::vector<bn::BigInt> two = {bn::BigInt(4), bn::BigInt(16)};
  corpus.push_back({kEdgeChallenge, challenge(0, 8, {})});
  corpus.push_back({kEdgeChallenge, challenge(kMaxLadder + 1, 8, two)});
  corpus.push_back({kEdgeChallenge, challenge(2, 0, two)});
  corpus.push_back({kEdgeChallenge, challenge(2, ~std::uint64_t{0}, two)});
  corpus.push_back(
      {kEdgeChallenge, challenge(2, 8, {bn::BigInt(4), keys.pk.n})});
  corpus.push_back({kEdgeChallenge, challenge(2, 8, two)});
  // kTpaSetKey bodies (N, g, coeff_bits, key_bits, block_bytes): an
  // implausible block size, the old four-field form, then a valid key
  // (both deployments replay it, so their TPA state stays in step).
  const auto set_key = [&](std::optional<std::uint64_t> block_bytes) {
    net::Writer w;
    w.bigint(keys.pk.n);
    w.bigint(keys.pk.g);
    w.varint(64);
    w.varint(128);
    if (block_bytes) w.varint(*block_bytes);
    return w.take();
  };
  corpus.push_back({kTpaSetKey, set_key(0)});
  corpus.push_back({kTpaSetKey, set_key(kMaxBlockBytes + 1)});
  corpus.push_back({kTpaSetKey, set_key(std::nullopt)});
  corpus.push_back({kTpaSetKey, set_key(64)});
  return corpus;
}

/// Reads one response frame exactly as it crossed the wire, length prefix
/// included.
Bytes recv_frame(RawTcpClient& client) {
  Bytes frame = client.recv_exact(4);
  const std::uint32_t len = std::uint32_t{frame[0]} |
                            (std::uint32_t{frame[1]} << 8) |
                            (std::uint32_t{frame[2]} << 16) |
                            (std::uint32_t{frame[3]} << 24);
  if (len > 0) {
    const Bytes body = client.recv_exact(len);
    frame.insert(frame.end(), body.begin(), body.end());
  }
  return frame;
}

std::string hex(const Bytes& b) {
  std::ostringstream out;
  for (const auto byte : b) {
    out << std::hex << (byte >> 4) << (byte & 0xf);
  }
  return out.str();
}

TEST(TransportDiffTest, ScriptedCorpusMatchesByteForByte) {
  InProcess oracle;
  Served served;
  // One connection per case.
  for (const WireCase& c : scripted_corpus()) {
    RawTcpClient client(served.server_for(c.method).port());
    client.send_request(c.method, c.payload);
    const Bytes want =
        owed_frame(oracle.handler_for(c.method), c.method, c.payload);
    EXPECT_EQ(hex(want), hex(recv_frame(client)))
        << "method " << c.method << " payload " << hex(c.payload);
  }
}

TEST(TransportDiffTest, PipelinedStreamMatchesByteForByte) {
  // Deterministic requests back-to-back on a single connection.
  const std::vector<WireCase> cases = {
      {kCspInfo, {}}, {kCspFetch, {0x00}}, {kCspFetch, {0x05}},
      {kCspInfo, {}}, {999, {}},  // unknown method mid-pipeline
      {kCspFetch, {0x01}},
  };
  InProcess oracle;
  Served served;
  Bytes stream;
  for (const WireCase& c : cases) {
    const Bytes f = frame_request(c.method, c.payload);
    stream.insert(stream.end(), f.begin(), f.end());
  }
  RawTcpClient client(served.csp_server.port());
  client.send(stream);
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Bytes want =
        owed_frame(oracle.csp, cases[i].method, cases[i].payload);
    EXPECT_EQ(hex(want), hex(recv_frame(client)))
        << "response " << i;
  }
}

/// Every case of the abuse corpus answers the valid frames it carries in
/// full (each with the oracle's bytes), then drops the connection with
/// nothing further.
TEST(TransportDiffTest, AbuseCorpusAnswersValidFramesThenDrops) {
  InProcess oracle;
  Served served;
  const Bytes valid = frame_request(kCspInfo, {});
  for (const AbuseCase& abuse : wire_abuse_corpus(valid)) {
    SCOPED_TRACE(abuse.name);
    RawTcpClient client(served.csp_server.port());
    client.send(abuse.stream);
    client.shutdown_write();
    for (std::size_t i = 0; i < abuse.expected_responses; ++i) {
      EXPECT_EQ(hex(owed_frame(oracle.csp, kCspInfo, {})),
                hex(recv_frame(client)));
    }
    EXPECT_TRUE(client.eof_within()) << "connection not dropped";
  }
}

}  // namespace
}  // namespace ice::proto
