#include "net/tcp.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <limits>
#include <optional>

#include "common/error.h"
#include "net/buffer_pool.h"
#include "net/reactor.h"

namespace ice::net {

namespace {

constexpr std::uint32_t kMaxFrame = 256u << 20;  // 256 MiB sanity cap

using Clock = std::chrono::steady_clock;
using Deadline = std::optional<Clock::time_point>;

[[noreturn]] void fail(const std::string& what) {
  throw TransportError(what + ": " + std::strerror(errno));
}

/// Blocks until `fd` is ready for `events` or the deadline passes (throws).
void io_wait(int fd, short events, const Deadline& deadline) {
  for (;;) {
    int timeout = -1;
    if (deadline) {
      const auto left = std::chrono::ceil<std::chrono::milliseconds>(
                            *deadline - Clock::now())
                            .count();
      if (left <= 0) {
        throw TransportError("TcpChannel: call deadline exceeded");
      }
      timeout = static_cast<int>(std::min<std::int64_t>(
          left, std::numeric_limits<int>::max()));
    }
    pollfd p{fd, events, 0};
    const int r = ::poll(&p, 1, timeout);
    if (r < 0) {
      if (errno == EINTR) continue;
      fail("poll");
    }
    if (r == 0) throw TransportError("TcpChannel: call deadline exceeded");
    return;
  }
}

void write_all(int fd, const std::uint8_t* data, std::size_t len,
               const Deadline& deadline = {}) {
  std::size_t done = 0;
  while (done < len) {
    const ssize_t n = ::send(fd, data + done, len - done,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        io_wait(fd, POLLOUT, deadline);
        continue;
      }
      fail("send");
    }
    done += static_cast<std::size_t>(n);
  }
}

/// Returns false on clean EOF at the first byte; throws on errors/short read.
bool read_all(int fd, std::uint8_t* data, std::size_t len,
              const Deadline& deadline = {}) {
  std::size_t done = 0;
  while (done < len) {
    const ssize_t n = ::recv(fd, data + done, len - done, MSG_DONTWAIT);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        io_wait(fd, POLLIN, deadline);
        continue;
      }
      fail("recv");
    }
    if (n == 0) {
      if (done == 0) return false;
      throw TransportError("recv: peer closed mid-frame");
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

std::uint32_t decode_u32(const std::uint8_t* b) {
  return std::uint32_t{b[0]} | (std::uint32_t{b[1]} << 8) |
         (std::uint32_t{b[2]} << 16) | (std::uint32_t{b[3]} << 24);
}

void encode_u32(std::uint8_t* b, std::uint32_t v) {
  b[0] = static_cast<std::uint8_t>(v);
  b[1] = static_cast<std::uint8_t>(v >> 8);
  b[2] = static_cast<std::uint8_t>(v >> 16);
  b[3] = static_cast<std::uint8_t>(v >> 24);
}

}  // namespace

TcpServer::TcpServer(RpcHandler& handler, std::uint16_t port,
                     ReactorLimits limits) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) fail("socket");
  const auto close_and_fail = [fd](const char* what) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    fail(what);
  };
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    close_and_fail("bind");
  }
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    close_and_fail("getsockname");
  }
  port_ = ntohs(addr.sin_port);
  if (::listen(fd, 256) < 0) close_and_fail("listen");
  reactor_ = std::make_unique<Reactor>(handler, limits);
  reactor_->listen(fd);  // the reactor owns the fd from here
}

TcpServer::~TcpServer() { stop(); }

void TcpServer::stop() { reactor_->stop(); }  // closes the listen fd it owns

TcpChannel::TcpChannel(const std::string& host, std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) fail("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd_);
    throw TransportError("TcpChannel: bad host address " + host);
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    const int saved = errno;
    ::close(fd_);
    errno = saved;
    fail("connect");
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

TcpChannel::~TcpChannel() {
  if (fd_ >= 0) ::close(fd_);
}

void TcpChannel::poison(const std::string& reason) {
  {
    std::lock_guard lock(recv_mu_);
    if (!broken_) {
      broken_ = true;
      broken_reason_ = reason;
    }
  }
  recv_cv_.notify_all();
}

Bytes TcpChannel::call(std::uint16_t method, BytesView request) {
  const auto ms = deadline_ms_.load(std::memory_order_relaxed);
  Deadline deadline;
  if (ms > 0) deadline = Clock::now() + std::chrono::milliseconds(ms);

  // Send phase: sends are serialized and assign the wire-order ticket the
  // response will arrive under.
  std::uint64_t ticket = 0;
  {
    std::lock_guard lock(send_mu_);
    {
      std::lock_guard rlock(recv_mu_);
      if (broken_) {
        throw TransportError("TcpChannel: channel poisoned: " +
                             broken_reason_);
      }
    }
    // RAII holder: the frame's capacity goes back to the pool even when
    // write_all throws, so transient send errors don't degrade pooling.
    PooledBytes holder(BufferPool::local().acquire(6 + request.size()));
    Bytes& frame = holder.mut();
    frame.resize(4 + 2 + request.size());
    encode_u32(frame.data(), static_cast<std::uint32_t>(2 + request.size()));
    frame[4] = static_cast<std::uint8_t>(method);
    frame[5] = static_cast<std::uint8_t>(method >> 8);
    std::copy(request.begin(), request.end(), frame.begin() + 6);
    try {
      write_all(fd_, frame.data(), frame.size(), deadline);
    } catch (const std::exception& e) {
      poison(e.what());
      throw;
    }
    ticket = next_ticket_++;
    stats_.calls++;
    stats_.bytes_sent += frame.size();
  }

  // Receive phase: wait for this ticket's turn, then read with recv_mu_
  // released so pipelined senders aren't blocked behind the head reader.
  std::unique_lock lock(recv_mu_);
  const auto my_turn = [&] {
    return broken_ || (recv_next_ == ticket && !reading_);
  };
  if (deadline) {
    if (!recv_cv_.wait_until(lock, *deadline, my_turn)) {
      // Our turn never came: an earlier response is stalled. A late reply
      // would desynchronise every ticket behind it, so poison.
      if (!broken_) {
        broken_ = true;
        broken_reason_ = "call deadline exceeded";
      }
      lock.unlock();
      recv_cv_.notify_all();
      throw TransportError("TcpChannel: call deadline exceeded");
    }
  } else {
    recv_cv_.wait(lock, my_turn);
  }
  if (broken_) {
    throw TransportError("TcpChannel: channel poisoned: " + broken_reason_);
  }
  reading_ = true;
  lock.unlock();

  Bytes response;
  std::string err;
  bool ok = true;
  try {
    std::uint8_t header[4];
    if (!read_all(fd_, header, 4, deadline)) {
      throw TransportError("TcpChannel: server closed connection");
    }
    const std::uint32_t len = decode_u32(header);
    if (len > kMaxFrame) {
      throw TransportError("TcpChannel: bad frame length");
    }
    if (len > BufferPool::kLargeFrame) {
      response = BufferPool::local().acquire(len);
    }
    response.resize(len);
    if (len > 0 && !read_all(fd_, response.data(), len, deadline)) {
      throw TransportError("TcpChannel: truncated response");
    }
  } catch (const std::exception& e) {
    ok = false;
    err = e.what();
  }

  lock.lock();
  reading_ = false;
  ++recv_next_;
  if (!ok && !broken_) {
    broken_ = true;
    broken_reason_ = err;
  }
  lock.unlock();
  recv_cv_.notify_all();
  if (!ok) throw TransportError(err);

  stats_.bytes_received += 4 + response.size();
  return response;
}

}  // namespace ice::net
