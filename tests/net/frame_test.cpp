// The lockstep deployment's wire framing: the canonical message-body codec
// (chunking at the 64 KiB boundary, malformed-input rejection), FrameConn's
// write path (append + flush) for multi-chunk bodies, reassembly across
// partial reads, chunked transfers, and the dead-peer contracts (a torn
// trailing frame is discarded; a zero-length frame, one longer than
// kMaxFrameBytes, or a chunked transfer past its ceiling reports the
// connection dead).
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "net/frame.h"

namespace pvr::net {
namespace {

[[nodiscard]] std::vector<std::uint8_t> patterned(std::size_t size) {
  std::vector<std::uint8_t> out(size);
  for (std::size_t i = 0; i < size; ++i) {
    out[i] = static_cast<std::uint8_t>((i * 131) & 0xFF);
  }
  return out;
}

TEST(MessageBodyCodecTest, RoundTripsEveryChunkBoundary) {
  for (const std::size_t size :
       {std::size_t{0}, std::size_t{1}, kWireChunkPayload - 1,
        kWireChunkPayload, kWireChunkPayload + 1, 3 * kWireChunkPayload + 17}) {
    const Message message{.from = 11,
                          .to = 22,
                          .channel = "pvr.bundle",
                          .payload = patterned(size)};
    const std::vector<std::uint8_t> body = encode_message_body(message);
    // The canonical encoding IS the byte-accounting model.
    EXPECT_EQ(body.size(), message.wire_size()) << "payload size " << size;
    const Message decoded = decode_message_body(body);
    EXPECT_EQ(decoded.from, message.from);
    EXPECT_EQ(decoded.to, message.to);
    EXPECT_EQ(decoded.channel, message.channel);
    EXPECT_EQ(decoded.payload, message.payload) << "payload size " << size;
    EXPECT_EQ(decoded.cookie, 0u);  // never serialized
  }
}

TEST(MessageBodyCodecTest, RejectsTruncationAndBadChunkHeaders) {
  const Message message{.from = 1,
                        .to = 2,
                        .channel = "pvr.gossip",
                        .payload = patterned(kWireChunkPayload + 100)};
  std::vector<std::uint8_t> body = encode_message_body(message);

  std::vector<std::uint8_t> truncated(body.begin(), body.end() - 1);
  EXPECT_THROW((void)decode_message_body(truncated), std::out_of_range);

  // Corrupt the second chunk's offset field (right after the first chunk).
  const std::size_t offset_pos =
      8 + 2 + message.channel.size() + 4 + kWireChunkPayload;
  body[offset_pos] ^= 0x01;
  EXPECT_THROW((void)decode_message_body(body), std::invalid_argument);
}

TEST(FrameConnTest, ReassemblesFramesAcrossPartialReads) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  FrameConn reader(fds[0]);

  const std::vector<std::uint8_t> body = patterned(300);
  // Sized up front, then filled: [u32 BE total][type][body].
  std::vector<std::uint8_t> wire(5 + body.size());
  const std::uint32_t total = static_cast<std::uint32_t>(1 + body.size());
  wire[0] = static_cast<std::uint8_t>(total >> 24);
  wire[1] = static_cast<std::uint8_t>(total >> 16);
  wire[2] = static_cast<std::uint8_t>(total >> 8);
  wire[3] = static_cast<std::uint8_t>(total);
  wire[4] = kFrameMessage;
  std::copy(body.begin(), body.end(), wire.begin() + 5);

  std::vector<std::vector<std::uint8_t>> frames;
  const auto on_frame = [&](std::uint8_t type,
                            std::span<const std::uint8_t> data) {
    EXPECT_EQ(type, kFrameMessage);
    frames.emplace_back(data.begin(), data.end());
  };

  // Drip the frame in three fragments: no frame until the last byte lands.
  ASSERT_EQ(::send(fds[1], wire.data(), 10, 0), 10);
  EXPECT_TRUE(reader.read_frames(on_frame));
  EXPECT_TRUE(frames.empty());
  ASSERT_EQ(::send(fds[1], wire.data() + 10, 100, 0), 100);
  EXPECT_TRUE(reader.read_frames(on_frame));
  EXPECT_TRUE(frames.empty());
  const std::size_t rest = wire.size() - 110;
  ASSERT_EQ(::send(fds[1], wire.data() + 110, rest, 0),
            static_cast<ssize_t>(rest));
  EXPECT_TRUE(reader.read_frames(on_frame));
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0], body);
  ::close(fds[1]);
}

TEST(FrameConnTest, DisconnectMidMessageDiscardsTornFrame) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  FrameConn reader(fds[0]);

  // A complete frame followed by the first half of another, then a close:
  // the complete one is delivered, the torn one never is.
  const std::vector<std::uint8_t> first = {0, 0, 0, 2, kFrameHello, 0xAA};
  const std::vector<std::uint8_t> torn = {0, 0, 1, 0, kFrameMessage, 1, 2, 3};
  ASSERT_EQ(::send(fds[1], first.data(), first.size(), 0),
            static_cast<ssize_t>(first.size()));
  ASSERT_EQ(::send(fds[1], torn.data(), torn.size(), 0),
            static_cast<ssize_t>(torn.size()));
  ::close(fds[1]);

  std::size_t delivered = 0;
  const bool alive =
      reader.read_frames([&](std::uint8_t type,
                             std::span<const std::uint8_t> data) {
        delivered += 1;
        EXPECT_EQ(type, kFrameHello);
        ASSERT_EQ(data.size(), 1u);
        EXPECT_EQ(data[0], 0xAA);
      });
  EXPECT_FALSE(alive) << "closed peer must report the connection dead";
  EXPECT_EQ(delivered, 1u) << "the torn trailing frame must be discarded";
}

TEST(FrameConnTest, WritePathCarriesEveryChunkBoundaryInOrder) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  FrameConn writer(fds[1]);
  FrameConn reader(fds[0]);

  const std::vector<std::size_t> sizes = {
      0, 1, kWireChunkPayload - 1, kWireChunkPayload, kWireChunkPayload + 1,
      3 * kWireChunkPayload + 17};
  std::vector<Message> sent;
  std::vector<Message> received;
  const auto on_frame = [&](std::uint8_t type,
                            std::span<const std::uint8_t> data) {
    EXPECT_EQ(type, kFrameMessage);
    received.push_back(decode_message_body(data));
  };
  // Queue each body while earlier ones are still partly unwritten, so the
  // outgoing queue is appended to and compacted mid-flight.
  for (const std::size_t size : sizes) {
    sent.push_back(Message{.from = 11,
                           .to = 22,
                           .channel = "pvr.bundle.agg",
                           .payload = patterned(size)});
    writer.append(kFrameMessage, encode_message_body(sent.back()));
    ASSERT_TRUE(writer.flush());
    ASSERT_TRUE(reader.read_frames(on_frame));
  }
  for (int i = 0; i < 10'000 && received.size() < sizes.size(); ++i) {
    ASSERT_TRUE(writer.flush());
    ASSERT_TRUE(reader.read_frames(on_frame));
  }
  EXPECT_FALSE(writer.has_pending_out());
  ASSERT_EQ(received.size(), sizes.size());
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    EXPECT_EQ(received[i].channel, sent[i].channel);
    EXPECT_EQ(received[i].payload, sent[i].payload)
        << "payload size " << sizes[i] << " corrupted or reordered";
  }
}

// A node's result travels as a chunked transfer: a body of more than two
// chunks must arrive byte for byte through read_one_frame, and on the wire
// no frame may carry more than kChunkBytes.
TEST(FrameConnTest, ChunkedTransferReassemblesByteForByte) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  FrameConn writer(fds[1]);
  FrameConn reader(fds[0]);
  const std::vector<std::uint8_t> body = patterned(2 * kChunkBytes + 12'345);

  // The writer blocks until the reader drains the socket, so it runs on
  // its own thread, as a node process runs beside the conductor.
  bool flushed = false;
  std::thread send([&] {
    writer.append_chunked(kFrameResult, body);
    flushed = writer.flush_all();
  });
  std::uint8_t type = 0;
  std::vector<std::uint8_t> received;
  const bool alive = reader.read_one_frame(type, received);
  send.join();
  ASSERT_TRUE(flushed);
  ASSERT_TRUE(alive);
  EXPECT_EQ(type, kFrameResult);
  EXPECT_TRUE(received == body) << "chunked body corrupted or reordered";

  // The same transfer, frame by frame: two full chunks, then the rest.
  std::vector<std::pair<std::uint8_t, std::size_t>> frames;
  writer.append_chunked(kFrameResult, body);
  for (int i = 0; i < 100'000 && frames.size() < 3; ++i) {
    ASSERT_TRUE(writer.flush());
    ASSERT_TRUE(reader.read_frames(
        [&](std::uint8_t frame_type, std::span<const std::uint8_t> data) {
          frames.emplace_back(frame_type, data.size());
        }));
  }
  const std::vector<std::pair<std::uint8_t, std::size_t>> expected = {
      {kFrameChunk, kChunkBytes},
      {kFrameChunk, kChunkBytes},
      {kFrameResult, std::size_t{12'345}}};
  EXPECT_EQ(frames, expected);
}

// A peer that keeps streaming kFrameChunk past the reader's ceiling is
// broken: the reader closes the connection and reports it dead instead of
// buffering without end.
TEST(FrameConnTest, ChunkedTransferPastCeilingReportsPeerDead) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  FrameConn writer(fds[1]);
  FrameConn reader(fds[0]);
  const std::vector<std::uint8_t> body = patterned(3 * kChunkBytes + 1);

  // The writer's flush ends either way: all bytes written, or the reader's
  // close breaks the connection under it.
  std::thread send([&] {
    writer.append_chunked(kFrameResult, body);
    (void)writer.flush_all();
  });
  std::uint8_t type = 0;
  std::vector<std::uint8_t> received;
  const bool alive = reader.read_one_frame(type, received, 2 * kChunkBytes);
  send.join();
  EXPECT_FALSE(alive) << "a transfer past the ceiling must report dead";
  EXPECT_FALSE(reader.open()) << "the reader must close the connection";
  EXPECT_TRUE(received.empty());
}

TEST(FrameConnTest, ZeroLengthFrameReportsPeerDead) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  FrameConn reader(fds[0]);

  // A complete frame, then a length prefix of 0 (no type byte — nothing a
  // FrameConn ever sends), then another complete frame.
  const std::vector<std::uint8_t> wire = {0, 0, 0, 2, kFrameHello, 0xAA,
                                          0, 0, 0, 0,
                                          0, 0, 0, 2, kFrameHello, 0xBB};
  ASSERT_EQ(::send(fds[1], wire.data(), wire.size(), 0),
            static_cast<ssize_t>(wire.size()));

  std::vector<std::uint8_t> delivered;
  const auto on_frame = [&](std::uint8_t type,
                            std::span<const std::uint8_t> data) {
    EXPECT_EQ(type, kFrameHello);
    ASSERT_EQ(data.size(), 1u);
    delivered.push_back(data[0]);
  };
  EXPECT_FALSE(reader.read_frames(on_frame))
      << "a zero-length frame must report the peer dead, not throw";
  EXPECT_EQ(delivered, std::vector<std::uint8_t>{0xAA})
      << "frames before the bad one are delivered, none after it";
  EXPECT_FALSE(reader.open());
  EXPECT_FALSE(reader.read_frames(on_frame)) << "the connection stays dead";
  EXPECT_EQ(delivered.size(), 1u);
  ::close(fds[1]);
}

// A header announcing more than kMaxFrameBytes can never complete as a
// frame; buffering for it would hold the connection open forever. Both the
// first length past the ceiling and the u32 maximum are refused.
TEST(FrameConnTest, OversizedFrameReportsPeerDead) {
  for (const std::uint32_t total : {kMaxFrameBytes + 1, 0xFFFFFFFFu}) {
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    FrameConn reader(fds[0]);

    // A complete frame, then an oversized header with a few body bytes.
    const std::vector<std::uint8_t> wire = {
        0, 0, 0, 2, kFrameHello, 0xAA,
        static_cast<std::uint8_t>(total >> 24),
        static_cast<std::uint8_t>(total >> 16),
        static_cast<std::uint8_t>(total >> 8),
        static_cast<std::uint8_t>(total),
        kFrameMessage, 0xBB, 0xCC};
    ASSERT_EQ(::send(fds[1], wire.data(), wire.size(), 0),
              static_cast<ssize_t>(wire.size()));

    std::vector<std::uint8_t> delivered;
    const auto on_frame = [&](std::uint8_t type,
                              std::span<const std::uint8_t> data) {
      EXPECT_EQ(type, kFrameHello);
      ASSERT_EQ(data.size(), 1u);
      delivered.push_back(data[0]);
    };
    EXPECT_FALSE(reader.read_frames(on_frame))
        << "a " << total << "-byte header must report the peer dead";
    EXPECT_EQ(delivered, std::vector<std::uint8_t>{0xAA})
        << "frames before the bad one are delivered";
    EXPECT_FALSE(reader.open());
    ::close(fds[1]);
  }

  // The sending side refuses to build a frame the receiver would refuse.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  FrameConn writer(fds[0]);
  const std::vector<std::uint8_t> oversized(kMaxFrameBytes);
  EXPECT_THROW(writer.append(kFrameMessage, oversized), std::length_error);
  EXPECT_FALSE(writer.has_pending_out());
  ::close(fds[1]);
}

}  // namespace
}  // namespace pvr::net
