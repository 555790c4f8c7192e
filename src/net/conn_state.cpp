#include "net/conn_state.h"

#include <algorithm>
#include <cstring>

#include "net/buffer_pool.h"

namespace ice::net {

namespace {

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

Bytes ConnState::acquire_buffer() {
  if (spare_.empty()) return {};
  Bytes buf = std::move(spare_.back());
  spare_.pop_back();
  buf.clear();  // keeps capacity
  return buf;
}

void ConnState::recycle_buffer(Bytes&& buf) {
  if (buf.capacity() > BufferPool::kLargeFrame) {
    // Large frames go back to the process-wide list, not to this
    // connection: otherwise every connection that ever carried one would
    // keep its own.
    BufferPool::local().release(std::move(buf));
    return;
  }
  if (buf.capacity() == 0 ||
      buf.capacity() > BufferPool::kMaxPooledCapacity ||
      spare_.size() >= BufferPool::kMaxPooled) {
    return;  // dropped; freed on destruction of the temporary
  }
  buf.clear();
  spare_.push_back(std::move(buf));
}

void ConnState::fail(const std::string& reason) {
  broken_ = true;
  error_ = reason;
}

bool ConnState::feed(BytesView chunk) {
  if (broken_) return false;
  std::size_t pos = 0;
  while (pos < chunk.size()) {
    switch (read_state_) {
      case ReadState::kLen: {
        const std::size_t want = 4 - header_fill_;
        const std::size_t got = std::min(want, chunk.size() - pos);
        std::memcpy(header_.data() + header_fill_, chunk.data() + pos, got);
        header_fill_ += got;
        pos += got;
        if (header_fill_ < 4) break;
        const std::uint32_t frame_len = decode_u32(header_.data());
        if (frame_len < 2 || frame_len > limits_.max_frame) {
          fail("ConnState: bad frame length");
          return false;
        }
        body_len_ = frame_len - 2;
        header_fill_ = 0;
        read_state_ = ReadState::kMethod;
        break;
      }
      case ReadState::kMethod: {
        const std::size_t want = 2 - header_fill_;
        const std::size_t got = std::min(want, chunk.size() - pos);
        std::memcpy(header_.data() + header_fill_, chunk.data() + pos, got);
        header_fill_ += got;
        pos += got;
        if (header_fill_ < 2) break;
        method_ = static_cast<std::uint16_t>(header_[0] |
                                             (header_[1] << 8));
        header_fill_ = 0;
        if (body_len_ == 0) {
          // Complete here: the kBody state only runs when more bytes
          // arrive, and an empty-payload frame may end the chunk.
          pending_.push_back(RequestFrame{next_seq_++, method_, Bytes()});
          read_state_ = ReadState::kLen;
          break;
        }
        body_ = body_len_ > BufferPool::kLargeFrame
                    ? BufferPool::local().acquire(body_len_)
                    : acquire_buffer();
        body_.reserve(body_len_);
        read_state_ = ReadState::kBody;
        break;
      }
      case ReadState::kBody: {
        const std::size_t want = body_len_ - body_.size();
        const std::size_t got = std::min(want, chunk.size() - pos);
        body_.insert(body_.end(), chunk.begin() + pos,
                     chunk.begin() + pos + got);
        pos += got;
        if (body_.size() < body_len_) break;
        pending_.push_back(
            RequestFrame{next_seq_++, method_, std::move(body_)});
        body_ = Bytes();
        read_state_ = ReadState::kLen;
        break;
      }
    }
  }
  return true;
}

bool ConnState::take_request(RequestFrame& out) {
  if (pending_.empty()) return false;
  out = std::move(pending_.front());
  pending_.pop_front();
  ++in_flight_;
  return true;
}

void ConnState::complete(std::uint64_t seq, Bytes&& body) {
  StagedResponse staged;
  encode_u32(staged.header.data(), static_cast<std::uint32_t>(body.size()));
  staged.body = std::move(body);
  queued_write_bytes_ += 4 + staged.body.size();
  staged_.emplace(seq, std::move(staged));
  // Release every response that is now unblocked into the ordered queue.
  for (auto it = staged_.find(next_staged_seq_); it != staged_.end();
       it = staged_.find(next_staged_seq_)) {
    write_queue_.push_back(std::move(it->second));
    staged_.erase(it);
    ++next_staged_seq_;
  }
}

BytesView ConnState::next_chunk() const {
  const StagedResponse& head = write_queue_.front();
  if (head_written_ < 4) {
    return BytesView(head.header.data() + head_written_, 4 - head_written_);
  }
  const std::size_t body_off = head_written_ - 4;
  return BytesView(head.body.data() + body_off, head.body.size() - body_off);
}

std::size_t ConnState::gather(BytesView* out, std::size_t max_spans) const {
  std::size_t count = 0;
  std::size_t skip = head_written_;  // only the head entry is partially sent
  for (const StagedResponse& entry : write_queue_) {
    if (count >= max_spans) break;
    if (skip < 4) {
      out[count++] = BytesView(entry.header.data() + skip, 4 - skip);
      skip = 4;
    }
    if (count >= max_spans) break;
    const std::size_t body_off = skip - 4;
    if (body_off < entry.body.size()) {
      out[count++] = BytesView(entry.body.data() + body_off,
                               entry.body.size() - body_off);
    }
    skip = 0;
  }
  return count;
}

void ConnState::advance(std::size_t n) {
  queued_write_bytes_ -= n;
  while (n > 0) {
    StagedResponse& head = write_queue_.front();
    const std::size_t total = 4 + head.body.size();
    const std::size_t take = std::min(n, total - head_written_);
    head_written_ += take;
    n -= take;
    if (head_written_ == total) {
      recycle_buffer(std::move(head.body));
      write_queue_.pop_front();
      head_written_ = 0;
      --in_flight_;
    }
  }
}

}  // namespace ice::net
