// Tests for the in-memory channel (byte accounting, link model) and the TCP
// transport (framing, concurrency, failure handling).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <memory>
#include <thread>

#include "common/error.h"
#include "net/channel.h"
#include "net/tcp.h"

namespace ice::net {
namespace {

/// Echo-with-prefix handler used across transport tests.
class EchoHandler : public RpcHandler {
 public:
  Bytes handle(std::uint16_t method, BytesView request) override {
    ++calls;
    Bytes out(1 + request.size());
    out[0] = static_cast<std::uint8_t>(method);
    std::copy(request.begin(), request.end(), out.begin() + 1);
    return out;
  }
  std::atomic<int> calls{0};
};

TEST(InMemoryChannelTest, RoundTripAndCounting) {
  EchoHandler handler;
  InMemoryChannel ch(handler);
  const Bytes req = {1, 2, 3};
  const Bytes resp = ch.call(7, req);
  EXPECT_EQ(resp, (Bytes{7, 1, 2, 3}));
  EXPECT_EQ(ch.stats().calls, 1u);
  EXPECT_EQ(ch.stats().bytes_sent, req.size() + kRpcHeaderBytes);
  EXPECT_EQ(ch.stats().bytes_received, resp.size() + kRpcHeaderBytes);
  ch.reset_stats();
  EXPECT_EQ(ch.stats().calls, 0u);
}

TEST(InMemoryChannelTest, LinkModelAccumulates) {
  EchoHandler handler;
  // 10 ms latency, 1 Mbit/s.
  InMemoryChannel ch(handler, LinkModel{0.010, 1e6});
  ch.call(1, Bytes(119, 0));  // request 119 + 6 header = 125 B
  // Echo response is 120 B payload + 6 header = 126 B; latency both ways.
  const double expect = 0.020 + 125 * 8 / 1e6 + 126 * 8 / 1e6;
  EXPECT_NEAR(ch.modeled_seconds(), expect, 1e-9);
}

TEST(LinkModelTest, InfiniteBandwidthIsLatencyOnly) {
  const LinkModel m{0.005, 0};
  EXPECT_DOUBLE_EQ(m.transfer_seconds(1 << 20), 0.005);
}

TEST(TcpTransportTest, RoundTrip) {
  EchoHandler handler;
  TcpServer server(handler);
  TcpChannel ch("127.0.0.1", server.port());
  const Bytes resp = ch.call(42, Bytes{9, 8, 7});
  EXPECT_EQ(resp, (Bytes{42, 9, 8, 7}));
  EXPECT_EQ(handler.calls.load(), 1);
}

TEST(TcpTransportTest, EmptyRequestAndResponse) {
  class NullHandler : public RpcHandler {
   public:
    Bytes handle(std::uint16_t, BytesView) override { return {}; }
  } handler;
  TcpServer server(handler);
  TcpChannel ch("127.0.0.1", server.port());
  EXPECT_TRUE(ch.call(0, {}).empty());
}

TEST(TcpTransportTest, LargePayload) {
  EchoHandler handler;
  TcpServer server(handler);
  TcpChannel ch("127.0.0.1", server.port());
  Bytes big(1 << 20);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>(i * 31);
  }
  const Bytes resp = ch.call(5, big);
  ASSERT_EQ(resp.size(), big.size() + 1);
  EXPECT_TRUE(std::equal(big.begin(), big.end(), resp.begin() + 1));
}

TEST(TcpTransportTest, SequentialCallsOnOneConnection) {
  EchoHandler handler;
  TcpServer server(handler);
  TcpChannel ch("127.0.0.1", server.port());
  for (std::uint16_t m = 0; m < 50; ++m) {
    const Bytes resp = ch.call(m, Bytes{static_cast<std::uint8_t>(m)});
    EXPECT_EQ(resp[0], static_cast<std::uint8_t>(m));
  }
  EXPECT_EQ(ch.stats().calls, 50u);
}

TEST(TcpTransportTest, PipelinedCallsShareOneConnection) {
  // Several threads calling through ONE channel: sends interleave on the
  // wire and each caller still gets its own response (ticket-ordered
  // reads) while the reactor runs the handlers concurrently.
  EchoHandler handler;
  TcpServer server(handler);
  TcpChannel ch("127.0.0.1", server.port());
  std::vector<std::future<bool>> futs;
  for (int t = 0; t < 4; ++t) {
    futs.push_back(std::async(std::launch::async, [&ch, t] {
      for (int i = 0; i < 25; ++i) {
        const auto m = static_cast<std::uint16_t>(t * 25 + i);
        // Response size varies with the payload, exercising ordering of
        // different-sized frames on one stream.
        const Bytes payload(1 + (m % 7), static_cast<std::uint8_t>(m));
        // The echo is the method id, then the payload: here m throughout.
        const Bytes expected(1 + payload.size(), static_cast<std::uint8_t>(m));
        if (ch.call(m, payload) != expected) return false;
      }
      return true;
    }));
  }
  for (auto& f : futs) EXPECT_TRUE(f.get());
  EXPECT_EQ(handler.calls.load(), 100);
  EXPECT_EQ(ch.stats().calls, 100u);
}

TEST(TcpTransportTest, ConcurrentClients) {
  EchoHandler handler;
  TcpServer server(handler);
  std::vector<std::future<bool>> futs;
  for (int c = 0; c < 8; ++c) {
    futs.push_back(std::async(std::launch::async, [&server, c] {
      TcpChannel ch("127.0.0.1", server.port());
      for (int i = 0; i < 20; ++i) {
        const auto m = static_cast<std::uint16_t>(c * 100 + i);
        const Bytes resp = ch.call(m, Bytes{1});
        if (resp != Bytes{static_cast<std::uint8_t>(m), 1}) return false;
      }
      return true;
    }));
  }
  for (auto& f : futs) EXPECT_TRUE(f.get());
  EXPECT_EQ(handler.calls.load(), 160);
}

TEST(TcpTransportTest, ByteAccountingMatchesFraming) {
  EchoHandler handler;
  TcpServer server(handler);
  TcpChannel ch("127.0.0.1", server.port());
  ch.call(1, Bytes(10, 0));
  // Request frame: 4 (len) + 2 (method) + 10; response: 4 (len) + 11.
  EXPECT_EQ(ch.stats().bytes_sent, 16u);
  EXPECT_EQ(ch.stats().bytes_received, 15u);
}

TEST(TcpTransportTest, ConnectToClosedPortThrows) {
  std::uint16_t dead_port;
  {
    EchoHandler handler;
    TcpServer server(handler);
    dead_port = server.port();
  }  // server gone
  EXPECT_THROW(TcpChannel("127.0.0.1", dead_port), TransportError);
}

TEST(TcpTransportTest, BadAddressThrows) {
  EXPECT_THROW(TcpChannel("not-an-ip", 1), TransportError);
}

TEST(TcpTransportTest, CallAfterServerStopThrows) {
  EchoHandler handler;
  auto server = std::make_unique<TcpServer>(handler);
  TcpChannel ch("127.0.0.1", server->port());
  EXPECT_EQ(ch.call(1, Bytes{1}).size(), 2u);
  server.reset();  // stops and joins
  EXPECT_THROW(
      {
        ch.call(1, Bytes{1});
        ch.call(1, Bytes{1});  // at most one buffered write can "succeed"
      },
      TransportError);
}

TEST(TcpTransportTest, StopIsIdempotent) {
  EchoHandler handler;
  TcpServer server(handler);
  server.stop();
  server.stop();
}

TEST(TcpTransportTest, HandlerExceptionDropsConnectionOnly) {
  class ThrowingHandler : public RpcHandler {
   public:
    Bytes handle(std::uint16_t method, BytesView) override {
      if (method == 13) throw std::runtime_error("boom");
      return Bytes{1};
    }
  } handler;
  TcpServer server(handler);
  {
    TcpChannel bad("127.0.0.1", server.port());
    EXPECT_THROW(
        {
          bad.call(13, {});
          bad.call(13, {});
        },
        TransportError);
  }
  // Server still serves new connections.
  TcpChannel good("127.0.0.1", server.port());
  EXPECT_EQ(good.call(1, {}), Bytes{1});
}

// --- Wire-level abuse: raw sockets against the real server/client ---------

/// Blocking connect of a bare socket to the loopback server.
int raw_connect(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);
  return fd;
}

void raw_send(int fd, const Bytes& data) {
  ASSERT_EQ(::send(fd, data.data(), data.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(data.size()));
}

Bytes le32(std::uint32_t v) {
  return {static_cast<std::uint8_t>(v), static_cast<std::uint8_t>(v >> 8),
          static_cast<std::uint8_t>(v >> 16),
          static_cast<std::uint8_t>(v >> 24)};
}

/// The server must answer hostile framing by dropping that connection (recv
/// sees EOF, never a hang) while continuing to serve honest clients.
void expect_dropped_then_still_serving(TcpServer& server, const Bytes& abuse,
                                       EchoHandler& handler) {
  const int before = handler.calls.load();
  const int fd = raw_connect(server.port());
  raw_send(fd, abuse);
  std::uint8_t byte;
  // FIN reads as 0; an RST (server closed with bytes still unread) as -1.
  // Either way the connection died without a reply byte.
  EXPECT_LE(::recv(fd, &byte, 1, 0), 0) << "server should close, not reply";
  ::close(fd);
  TcpChannel good("127.0.0.1", server.port());
  EXPECT_EQ(good.call(3, Bytes{1}), (Bytes{3, 1}));
  EXPECT_EQ(handler.calls.load(), before + 1) << "abuse must not reach handler";
}

TEST(TcpAbuseServerTest, OversizedLengthPrefixDropsConnection) {
  EchoHandler handler;
  TcpServer server(handler);
  // 4 GiB frame announcement: the server must refuse to allocate and close.
  expect_dropped_then_still_serving(server, le32(0xffffffffu), handler);
}

TEST(TcpAbuseServerTest, UndersizedFrameDropsConnection) {
  EchoHandler handler;
  TcpServer server(handler);
  // Frame length 1 cannot even hold the method id.
  Bytes abuse = le32(1);
  abuse.push_back(0x7f);
  expect_dropped_then_still_serving(server, abuse, handler);
}

TEST(TcpAbuseServerTest, TruncatedFrameThenCloseDropsConnection) {
  EchoHandler handler;
  TcpServer server(handler);
  const int before = handler.calls.load();
  {
    const int fd = raw_connect(server.port());
    Bytes partial = le32(100);  // promise 100 bytes...
    partial.resize(partial.size() + 10);  // ...deliver 10
    raw_send(fd, partial);
    ::close(fd);  // peer vanishes mid-frame
  }
  // The half-frame never reaches the handler and the server stays up.
  TcpChannel good("127.0.0.1", server.port());
  EXPECT_EQ(good.call(9, {}), Bytes{9});
  EXPECT_EQ(handler.calls.load(), before + 1);
}

/// One-shot raw server: accepts a single connection and runs `script` on it.
class RawPeer {
 public:
  explicit RawPeer(std::function<void(int fd)> script) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
    socklen_t len = sizeof addr;
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    ::listen(listen_fd_, 1);
    thread_ = std::thread([this, script = std::move(script)] {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd >= 0) {
        script(fd);
        ::close(fd);
      }
    });
  }

  ~RawPeer() {
    thread_.join();
    ::close(listen_fd_);
  }

  [[nodiscard]] std::uint16_t port() const { return port_; }

 private:
  int listen_fd_;
  std::uint16_t port_;
  std::thread thread_;
};

/// Reads and discards one request frame from the channel under test. Runs on
/// the RawPeer thread, so it reports failure by return instead of gtest
/// assertions (which are not thread-safe).
bool drain_request(int fd) {
  std::uint8_t header[4];
  if (::recv(fd, header, 4, MSG_WAITALL) != 4) return false;
  std::uint32_t frame_len = 0;
  std::memcpy(&frame_len, header, 4);  // little-endian hosts only (x86/arm)
  Bytes frame(frame_len);
  return ::recv(fd, frame.data(), frame.size(), MSG_WAITALL) ==
         static_cast<ssize_t>(frame.size());
}

TEST(TcpAbuseTest, PeerDisconnectMidCallIsTypedError) {
  // The peer consumes the request, then vanishes without answering: the
  // client must surface TransportError, never hang or return garbage.
  RawPeer peer([](int fd) { (void)drain_request(fd); });
  TcpChannel ch("127.0.0.1", peer.port());
  EXPECT_THROW((void)ch.call(1, Bytes{1, 2, 3}), TransportError);
}

TEST(TcpAbuseTest, TruncatedResponseIsTypedError) {
  // The peer answers with a frame that promises more bytes than it sends.
  RawPeer peer([](int fd) {
    (void)drain_request(fd);
    Bytes reply = le32(50);
    reply.push_back(0xab);  // 1 of the 50 promised bytes
    (void)::send(fd, reply.data(), reply.size(), MSG_NOSIGNAL);
  });
  TcpChannel ch("127.0.0.1", peer.port());
  EXPECT_THROW((void)ch.call(1, {}), TransportError);
}

TEST(TcpAbuseTest, OversizedResponseLengthIsTypedError) {
  // A hostile server announcing a 4 GiB response must not cause the client
  // to allocate or block for it.
  RawPeer peer([](int fd) {
    (void)drain_request(fd);
    const Bytes reply = le32(0xfffffff0u);
    (void)::send(fd, reply.data(), reply.size(), MSG_NOSIGNAL);
  });
  TcpChannel ch("127.0.0.1", peer.port());
  EXPECT_THROW((void)ch.call(1, {}), TransportError);
}

// --- Call deadlines: a dead or stalling peer must not hang the caller -----

/// Blocks the RawPeer thread until the client end closes (EOF), keeping the
/// stalled connection alive deterministically — no sleeps.
void hold_until_client_closes(int fd) {
  std::uint8_t byte;
  while (::recv(fd, &byte, 1, 0) > 0) {
  }
}

TEST(TcpDeadlineTest, SilentPeerTimesOutWithTypedError) {
  // The peer consumes the request and never answers. Without a deadline
  // this call would hang forever (the original bug); with one it must
  // surface TransportError within the budget.
  RawPeer peer([](int fd) {
    (void)drain_request(fd);
    hold_until_client_closes(fd);
  });
  auto ch = std::make_unique<TcpChannel>("127.0.0.1", peer.port());
  ch->set_deadline(std::chrono::milliseconds(100));
  EXPECT_EQ(ch->deadline(), std::chrono::milliseconds(100));
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW((void)ch->call(1, Bytes{1}), TransportError);
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::seconds(5));
  // The expiry poisoned the channel: a late response could desynchronise
  // the stream, so further calls must fail fast.
  EXPECT_THROW((void)ch->call(1, Bytes{1}), TransportError);
  ch.reset();  // unblocks the peer
}

TEST(TcpDeadlineTest, StallMidResponseHeaderTimesOut) {
  RawPeer peer([](int fd) {
    (void)drain_request(fd);
    const Bytes partial = {0x40, 0x00};  // 2 of 4 header bytes, then stall
    (void)::send(fd, partial.data(), partial.size(), MSG_NOSIGNAL);
    hold_until_client_closes(fd);
  });
  auto ch = std::make_unique<TcpChannel>("127.0.0.1", peer.port());
  ch->set_deadline(std::chrono::milliseconds(100));
  EXPECT_THROW((void)ch->call(1, {}), TransportError);
  ch.reset();
}

TEST(TcpDeadlineTest, StallMidResponseBodyTimesOut) {
  RawPeer peer([](int fd) {
    (void)drain_request(fd);
    Bytes partial = le32(64);  // promise 64 payload bytes...
    partial.push_back(0xaa);   // ...deliver one
    (void)::send(fd, partial.data(), partial.size(), MSG_NOSIGNAL);
    hold_until_client_closes(fd);
  });
  auto ch = std::make_unique<TcpChannel>("127.0.0.1", peer.port());
  ch->set_deadline(std::chrono::milliseconds(100));
  EXPECT_THROW((void)ch->call(1, {}), TransportError);
  ch.reset();
}

TEST(TcpDeadlineTest, PipelinedWaiterBehindStalledHeadTimesOutToo) {
  // Two concurrent calls on one channel; the peer answers neither. The
  // head caller times out in recv, and the second caller — queued behind
  // it waiting for its turn — must time out as well, not wait forever.
  RawPeer peer([](int fd) {
    (void)drain_request(fd);
    (void)drain_request(fd);
    hold_until_client_closes(fd);
  });
  auto ch = std::make_unique<TcpChannel>("127.0.0.1", peer.port());
  ch->set_deadline(std::chrono::milliseconds(150));
  auto first = std::async(std::launch::async,
                          [&] { (void)ch->call(1, Bytes{1}); });
  auto second = std::async(std::launch::async,
                           [&] { (void)ch->call(2, Bytes{2}); });
  EXPECT_THROW(first.get(), TransportError);
  EXPECT_THROW(second.get(), TransportError);
  ch.reset();
}

TEST(TcpDeadlineTest, GenerousDeadlineDoesNotBreakHealthyCalls) {
  EchoHandler handler;
  TcpServer server(handler);
  TcpChannel ch("127.0.0.1", server.port());
  ch.set_deadline(std::chrono::seconds(30));
  for (std::uint16_t m = 0; m < 10; ++m) {
    EXPECT_EQ(ch.call(m, Bytes{7})[1], 7u);
  }
}

}  // namespace
}  // namespace ice::net
