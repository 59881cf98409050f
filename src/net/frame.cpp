#include "net/frame.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "crypto/encoding.h"

namespace pvr::net {

namespace {

void set_nonblocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw std::runtime_error("frame: fcntl(O_NONBLOCK) failed");
  }
}

}  // namespace

std::vector<std::uint8_t> encode_message_body(const Message& message) {
  crypto::ByteWriter writer;
  writer.put_u32(message.from);
  writer.put_u32(message.to);
  writer.put_u16(static_cast<std::uint16_t>(message.channel.size()));
  writer.put_raw(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(message.channel.data()),
      message.channel.size()));
  writer.put_u32(static_cast<std::uint32_t>(message.payload.size()));
  const std::span<const std::uint8_t> payload(message.payload);
  const std::size_t first = std::min(payload.size(), kWireChunkPayload);
  writer.put_raw(payload.subspan(0, first));
  for (std::size_t offset = first; offset < payload.size();
       offset += kWireChunkPayload) {
    const std::size_t len =
        std::min(payload.size() - offset, kWireChunkPayload);
    writer.put_u32(static_cast<std::uint32_t>(offset));
    writer.put_u16(static_cast<std::uint16_t>(len % kWireChunkPayload));
    writer.put_raw(payload.subspan(offset, len));
  }
  std::vector<std::uint8_t> body = writer.take();
  if (body.size() != message.wire_size()) {
    throw std::logic_error("frame: body size disagrees with wire_size()");
  }
  return body;
}

Message decode_message_body(std::span<const std::uint8_t> body) {
  crypto::ByteReader reader(body);
  Message message;
  message.from = reader.get_u32();
  message.to = reader.get_u32();
  const std::uint16_t channel_len = reader.get_u16();
  const std::vector<std::uint8_t> channel = reader.get_raw(channel_len);
  message.channel.assign(channel.begin(), channel.end());
  // Every payload byte is at least one body byte.
  const std::uint32_t payload_len = reader.get_count(1);
  message.payload.reserve(payload_len);
  const std::size_t first =
      std::min<std::size_t>(payload_len, kWireChunkPayload);
  const std::vector<std::uint8_t> head = reader.get_raw(first);
  message.payload.insert(message.payload.end(), head.begin(), head.end());
  while (message.payload.size() < payload_len) {
    const std::uint32_t offset = reader.get_u32();
    if (offset != message.payload.size()) {
      throw std::invalid_argument("frame: chunk offset out of order");
    }
    std::size_t len = reader.get_u16();
    if (len == 0) len = kWireChunkPayload;  // u16 wraps at exactly 64 KiB
    if (message.payload.size() + len > payload_len) {
      throw std::invalid_argument("frame: chunk overruns payload length");
    }
    const std::vector<std::uint8_t> chunk = reader.get_raw(len);
    message.payload.insert(message.payload.end(), chunk.begin(), chunk.end());
  }
  if (!reader.exhausted()) {
    throw std::invalid_argument("frame: trailing bytes after payload");
  }
  return message;
}

FrameConn::FrameConn(int fd) : fd_(fd) {
  if (fd_ < 0) throw std::invalid_argument("FrameConn: bad fd");
  set_nonblocking(fd_);
  const int one = 1;
  (void)setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

FrameConn::~FrameConn() { close(); }

void FrameConn::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void FrameConn::append(std::uint8_t type, std::span<const std::uint8_t> body) {
  if (body.size() >= kMaxFrameBytes) {
    throw std::length_error("FrameConn::append: frame exceeds kMaxFrameBytes");
  }
  // Compact the already-written prefix occasionally so the buffer does not
  // grow without bound on a long-lived connection.
  if (out_pos_ > 0 && out_pos_ == out_.size()) {
    out_.clear();
    out_pos_ = 0;
  } else if (out_pos_ > 64 * 1024) {
    out_.erase(out_.begin(),
               out_.begin() + static_cast<std::ptrdiff_t>(out_pos_));
    out_pos_ = 0;
  }
  const std::uint32_t total = static_cast<std::uint32_t>(1 + body.size());
  out_.push_back(static_cast<std::uint8_t>(total >> 24));
  out_.push_back(static_cast<std::uint8_t>(total >> 16));
  out_.push_back(static_cast<std::uint8_t>(total >> 8));
  out_.push_back(static_cast<std::uint8_t>(total));
  out_.push_back(type);
  out_.insert(out_.end(), body.begin(), body.end());
}

void FrameConn::append_chunked(std::uint8_t type,
                               std::span<const std::uint8_t> body) {
  while (body.size() > kChunkBytes) {
    append(kFrameChunk, body.first(kChunkBytes));
    body = body.subspan(kChunkBytes);
  }
  append(type, body);
}

bool FrameConn::flush() {
  while (out_pos_ < out_.size()) {
    const ssize_t wrote =
        ::send(fd_, out_.data() + out_pos_, out_.size() - out_pos_,
               MSG_NOSIGNAL);
    if (wrote > 0) {
      out_pos_ += static_cast<std::size_t>(wrote);
      continue;
    }
    if (wrote < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (wrote < 0 && errno == EINTR) continue;
    return false;  // peer reset
  }
  return true;
}

bool FrameConn::flush_all() {
  while (has_pending_out()) {
    if (!flush()) return false;
    if (!has_pending_out()) break;
    pollfd pfd{.fd = fd_, .events = POLLOUT, .revents = 0};
    if (::poll(&pfd, 1, 1000) < 0 && errno != EINTR) return false;
    if ((pfd.revents & (POLLERR | POLLHUP)) != 0) return false;
  }
  return true;
}

bool FrameConn::read_frames(
    const std::function<void(std::uint8_t, std::span<const std::uint8_t>)>&
        on_frame) {
  bool alive = true;
  std::uint8_t chunk[16 * 1024];
  while (true) {
    const ssize_t got = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (got > 0) {
      in_.insert(in_.end(), chunk, chunk + got);
      continue;
    }
    if (got == 0) {
      alive = false;  // orderly shutdown; a partial frame below is discarded
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    alive = false;
    break;
  }
  std::size_t pos = 0;
  while (in_.size() - pos >= 4) {
    const std::uint32_t total = (std::uint32_t(in_[pos]) << 24) |
                                (std::uint32_t(in_[pos + 1]) << 16) |
                                (std::uint32_t(in_[pos + 2]) << 8) |
                                std::uint32_t(in_[pos + 3]);
    // No type byte, or more than any sender produces: a broken peer, not
    // a frame.
    if (total == 0 || total > kMaxFrameBytes) {
      close();
      in_.clear();
      return false;
    }
    if (in_.size() - pos - 4 < total) break;
    const std::uint8_t type = in_[pos + 4];
    on_frame(type, std::span<const std::uint8_t>(in_.data() + pos + 5,
                                                 total - 1));
    pos += 4 + total;
  }
  in_.erase(in_.begin(), in_.begin() + static_cast<std::ptrdiff_t>(pos));
  return alive;
}

bool FrameConn::read_one_frame(std::uint8_t& type,
                               std::vector<std::uint8_t>& body,
                               std::size_t max_body) {
  body.clear();
  bool done = false;
  bool oversized = false;
  while (true) {
    const bool alive =
        read_frames([&](std::uint8_t t, std::span<const std::uint8_t> b) {
          if (done) {
            throw std::logic_error(
                "FrameConn::read_one_frame: multiple frames in flight on a "
                "lockstep control connection");
          }
          if (oversized || b.size() > max_body - body.size()) {
            oversized = true;
            return;
          }
          body.insert(body.end(), b.begin(), b.end());
          if (t != kFrameChunk) {
            type = t;
            done = true;
          }
        });
    if (oversized) {
      close();
      body.clear();
      return false;
    }
    if (done) return true;
    if (!alive) return false;
    pollfd pfd{.fd = fd_, .events = POLLIN, .revents = 0};
    if (::poll(&pfd, 1, 10'000) < 0 && errno != EINTR) return false;
  }
}

int listen_loopback(std::uint16_t& port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("frame: socket() failed");
  const int one = 1;
  (void)setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, 64) < 0) {
    ::close(fd);
    throw std::runtime_error("frame: bind/listen on loopback failed");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    ::close(fd);
    throw std::runtime_error("frame: getsockname failed");
  }
  port = ntohs(addr.sin_port);
  set_nonblocking(fd);
  return fd;
}

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("frame: socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  while (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)) < 0) {
    if (errno == EINTR) continue;
    ::close(fd);
    throw std::runtime_error("frame: connect to loopback failed");
  }
  return fd;
}

int accept_connection(int listen_fd) {
  while (true) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd >= 0) return fd;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return -1;
    throw std::runtime_error("frame: accept failed");
  }
}

}  // namespace pvr::net
