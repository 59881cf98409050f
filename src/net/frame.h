// Wire framing for the lockstep multiprocess deployment: the conductor's
// control connections and the node processes' peer-to-peer data plane.
//
// Every frame on a PVR TCP connection is
//
//     [u32 BE total_length][u8 type][body: total_length - 1 bytes]
//
// For kMessage frames the body is the canonical message-body encoding whose
// length is EXACTLY Message::wire_size(): 4B from + 4B to (the 8B
// addressing), u16 channel length + channel bytes, u32 payload length, then
// the payload split into 64 KiB chunks — the first chunk bare, every
// further chunk prefixed by a 6-byte header (u32 offset + u16 length), the
// same chunking model the simulator's byte accounting has always charged
// (kWireChunkPayload/kWireChunkHeader). The bytes a node process relays
// therefore match the simulated byte accounting by construction, not by
// convention.
//
// FrameConn owns the per-connection buffering: a nonblocking fd, an
// outgoing queue flushed as the socket accepts bytes, and an incoming
// reassembly buffer that yields complete frames in order. It is
// single-threaded — the owning loop is the only caller.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "net/transport.h"

namespace pvr::net {

// Frame types. Peer data and the multiprocess conductor's control verbs
// share one numbering so a connection can carry both.
inline constexpr std::uint8_t kFrameHello = 1;    // body: u32 process index
// Peer data: body [u64 cookie][message encoding].
inline constexpr std::uint8_t kFrameMessage = 2;
// Live introspection: an empty-bodied request from the conductor, answered
// with an encoded obs::StatsSample from the node's obs::StatsServer.
inline constexpr std::uint8_t kFrameStats = 4;
// Multiprocess lockstep control plane (scenario/multiprocess.cpp).
inline constexpr std::uint8_t kFramePeers = 16;
inline constexpr std::uint8_t kFrameReady = 17;
inline constexpr std::uint8_t kFrameGrant = 18;
inline constexpr std::uint8_t kFrameDone = 19;
inline constexpr std::uint8_t kFrameFinish = 20;
inline constexpr std::uint8_t kFrameResult = 21;
// A leading piece of a chunked transfer (FrameConn::append_chunked).
inline constexpr std::uint8_t kFrameChunk = 22;

// Ceiling on a frame's u32 total_length (type byte + body). A header
// announcing more is a broken peer, not a frame still arriving.
inline constexpr std::uint32_t kMaxFrameBytes = 64u << 20;
// Largest body one frame of a chunked transfer carries, 1/64 of the
// ceiling. A node's result (its evidence logs and trace shard, ~14 KB per
// round per process) and the conductor's window-close log (25 B per round)
// grow with the run, so they travel chunked and no run length can push a
// frame past kMaxFrameBytes.
inline constexpr std::size_t kChunkBytes = std::size_t{1} << 20;
// Default ceiling on a reassembled chunked transfer (1024 chunks, ~75k
// rounds of one node's result). A peer that keeps sending kFrameChunk
// past it is broken, and its connection is closed.
inline constexpr std::size_t kMaxTransferBytes = std::size_t{1} << 30;

// Encodes `message` into exactly message.wire_size() bytes (the cookie is
// in-memory only and never serialized).
[[nodiscard]] std::vector<std::uint8_t> encode_message_body(
    const Message& message);

// Inverse of encode_message_body. Throws std::out_of_range on truncation
// and std::invalid_argument on malformed chunk headers.
[[nodiscard]] Message decode_message_body(std::span<const std::uint8_t> body);

// One nonblocking TCP connection with frame reassembly.
class FrameConn {
 public:
  // Takes ownership of `fd` (closed on destruction) and switches it to
  // nonblocking mode.
  explicit FrameConn(int fd);
  ~FrameConn();
  FrameConn(const FrameConn&) = delete;
  FrameConn& operator=(const FrameConn&) = delete;

  [[nodiscard]] int fd() const noexcept { return fd_; }
  [[nodiscard]] bool open() const noexcept { return fd_ >= 0; }
  [[nodiscard]] bool has_pending_out() const noexcept {
    return out_pos_ < out_.size();
  }

  // Queues one frame for transmission (does not write to the socket).
  // Throws std::length_error when the frame would exceed kMaxFrameBytes,
  // which the receiving side would reject.
  void append(std::uint8_t type, std::span<const std::uint8_t> body);
  // Queues `body`, of any size, as a chunked transfer: kFrameChunk frames
  // of kChunkBytes each, then one frame of `type` with the remainder.
  void append_chunked(std::uint8_t type, std::span<const std::uint8_t> body);

  // Writes as much queued output as the socket currently accepts.
  // Returns false when the connection is dead (peer reset / closed).
  bool flush();

  // Blocks (poll on POLLOUT) until every queued byte is written or the
  // connection dies. Every multiprocess send path ends in this.
  bool flush_all();

  // Reads every byte currently available and invokes `on_frame` for each
  // complete frame, in arrival order. Returns false once the peer has
  // closed or errored (a partial trailing frame is discarded — the
  // disconnect-mid-message contract) or has sent a zero-length frame or
  // one longer than kMaxFrameBytes, which no sender produces: the frames
  // before it are delivered, then the connection is closed like any other
  // broken one.
  bool read_frames(
      const std::function<void(std::uint8_t, std::span<const std::uint8_t>)>&
          on_frame);

  // Blocks until one frame, or one chunked transfer, arrives (for the
  // lockstep control plane): `body` is the kFrameChunk pieces and the
  // closing frame's body concatenated, `type` the closing frame's type; a
  // plain frame is a transfer of one frame. Returns false on disconnect,
  // and closes the connection and returns false once the body would
  // exceed `max_body`.
  bool read_one_frame(std::uint8_t& type, std::vector<std::uint8_t>& body,
                      std::size_t max_body = kMaxTransferBytes);

  void close();

 private:
  int fd_ = -1;
  std::vector<std::uint8_t> out_;
  std::size_t out_pos_ = 0;
  std::vector<std::uint8_t> in_;
};

// Listening socket helpers (IPv4 loopback only — this is a single-host
// deployment/experiment plane, not an internet-facing daemon).
[[nodiscard]] int listen_loopback(std::uint16_t& port);  // 0 = ephemeral
[[nodiscard]] int connect_loopback(std::uint16_t port);  // blocking connect
[[nodiscard]] int accept_connection(int listen_fd);      // -1 when none ready

}  // namespace pvr::net
