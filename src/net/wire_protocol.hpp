// Length-prefixed binary wire protocol of the TCP serving front.
//
// Every frame is `[u32 LE frame_len][u8 type][payload]`, where frame_len
// counts the type byte plus the payload (so a valid frame_len is >= 1).
// One TCP connection carries exactly one recognizer stream:
//
//   client -> server   kOpen    StreamConfig fields (decode mode, greedy
//                               knobs, deadline budget, session key)
//                      kAudio   LE f32 samples (frame-aligned, any chunking)
//                      kFinish  end of audio
//                      kClose   release the stream (server closes the
//                               connection after flushing)
//   server -> client   kOpened  u64 stream handle id
//                      kPartial / kFinal / kDegraded / kRejected
//                               one serialized speech::StreamEvent each;
//                               the frame type mirrors the event so thin
//                               clients can dispatch without parsing, and
//                               the payload carries the full event so
//                               decode_event reconstructs it bit-identical
//                               to a direct ShardedEngine::poll_events call
//                      kError   u16 typed code + UTF-8 message, terminal
//
// All integers are little-endian; floats are IEEE-754 bit patterns in
// little-endian byte order. The codec is transport-agnostic byte-vector
// in / byte-vector out, so tests fuzz it without sockets.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "serve/recognizer.hpp"
#include "speech/streaming_decoder.hpp"

namespace rtmobile::net {

/// Default ceiling on frame_len: bounds per-connection buffering so a
/// hostile length prefix (up to 0xFFFFFFFF) cannot make the server
/// attempt a gigabyte allocation. 16 MiB holds ~4 min of 16 kHz f32
/// audio in one frame — far beyond the chunk sizes any sane client
/// sends. Deployments can tighten it per decoder via
/// FrameDecoder::set_max_frame_bytes.
inline constexpr std::uint32_t kMaxFrameBytes = 16U << 20;

enum class FrameType : std::uint8_t {
  // client -> server
  kOpen = 0x01,
  kAudio = 0x02,
  kFinish = 0x03,
  kClose = 0x04,
  // server -> client
  kOpened = 0x81,
  kPartial = 0x82,
  kFinal = 0x83,
  kDegraded = 0x84,
  kRejected = 0x85,
  kError = 0x86,
  kAborted = 0x87,  // terminal: serving layer lost the stream
};

[[nodiscard]] const char* to_string(FrameType type);

/// Typed failure codes carried by kError frames.
enum class WireError : std::uint16_t {
  kProtocol = 1,            // malformed frame / bad state machine order
  kRejectedOverBudget = 2,  // open-time admission control refused
  kBackpressureOverflow = 3,  // ingress congestion exhausted retries
  kServerError = 4,           // recognizer threw serving the stream
  kSlowConsumer = 5,  // client read too slowly; write buffer overflowed
  kFrameTooLarge = 6,  // declared frame_len above the decoder's max
  kTimeout = 7,        // idle/write-stall deadline expired server-side
};

[[nodiscard]] const char* to_string(WireError error);

/// The kOpen payload: the StreamConfig fields a remote client controls.
struct OpenRequest {
  std::uint8_t decode_mode =
      static_cast<std::uint8_t>(speech::DecodeMode::kGreedy);
  std::uint32_t smooth_window = 3;
  std::uint32_t min_run = 2;
  double switch_penalty = 4.0;
  double deadline_budget_seconds = 0.0;  // 0 = no deadline
  std::uint64_t session_key = 0;

  /// The server-side translation into the serve-layer open config.
  [[nodiscard]] serve::StreamConfig to_stream_config() const;
  /// The client-side translation from one (examples/bench reuse it).
  [[nodiscard]] static OpenRequest from_stream_config(
      const serve::StreamConfig& config);
};

// ---- encoding (append one whole frame to `out`) ----

void append_open(std::vector<std::uint8_t>& out, const OpenRequest& request);
void append_audio(std::vector<std::uint8_t>& out,
                  std::span<const float> samples);
void append_finish(std::vector<std::uint8_t>& out);
void append_close(std::vector<std::uint8_t>& out);
void append_opened(std::vector<std::uint8_t>& out, std::uint64_t handle_id);
/// Picks kPartial/kFinal/kDegraded/kRejected from the event itself.
void append_event(std::vector<std::uint8_t>& out,
                  const speech::StreamEvent& event);
void append_error(std::vector<std::uint8_t>& out, WireError error,
                  std::string_view message);

// ---- payload decoding (all reject short/trailing/garbled payloads) ----

[[nodiscard]] bool decode_open(std::span<const std::uint8_t> payload,
                               OpenRequest& out);
/// Appends the samples to `out`; payload must be a multiple of 4 bytes.
[[nodiscard]] bool decode_audio(std::span<const std::uint8_t> payload,
                                std::vector<float>& out);
[[nodiscard]] bool decode_opened(std::span<const std::uint8_t> payload,
                                 std::uint64_t& handle_id);
/// Reconstructs the exact StreamEvent append_event serialized.
[[nodiscard]] bool decode_event(std::span<const std::uint8_t> payload,
                                speech::StreamEvent& out);
[[nodiscard]] bool decode_error(std::span<const std::uint8_t> payload,
                                WireError& error, std::string& message);

/// One decoded frame. The payload is a copy (stable until the next
/// FrameDecoder::next call consumes the buffer behind it is a non-issue).
struct Frame {
  FrameType type = FrameType::kOpen;
  std::vector<std::uint8_t> payload;
};

/// Incremental deframer: feed() arbitrary byte chunks as the socket
/// yields them, next() pops complete frames. Tolerates any fragmentation
/// (a frame split across dozens of reads, many frames in one read).
/// A frame_len of 0 or beyond max_frame_bytes() is unrecoverable — the
/// stream has lost sync — so the decoder latches failed() (with a typed
/// reason) and next() returns nothing from then on. The length check
/// runs before any buffering of the frame body, so a crafted 0xFFFFFFFF
/// prefix never turns into an allocation.
class FrameDecoder {
 public:
  void feed(std::span<const std::uint8_t> bytes);
  /// Pops the next complete frame into `frame`; false when more bytes
  /// are needed (or the decoder failed).
  [[nodiscard]] bool next(Frame& frame);
  [[nodiscard]] bool failed() const { return failed_; }
  /// Why the decoder latched: kFrameTooLarge for an oversized declared
  /// length, kProtocol otherwise. Meaningful only when failed().
  [[nodiscard]] WireError failure() const { return failure_; }
  /// Tightens (or widens) the per-frame length ceiling; takes effect on
  /// the next length prefix examined.
  void set_max_frame_bytes(std::uint32_t max) { max_frame_bytes_ = max; }
  [[nodiscard]] std::uint32_t max_frame_bytes() const {
    return max_frame_bytes_;
  }
  /// Bytes buffered but not yet consumed as frames.
  [[nodiscard]] std::size_t buffered_bytes() const {
    return buffer_.size() - consumed_;
  }

 private:
  std::vector<std::uint8_t> buffer_;
  std::size_t consumed_ = 0;  // prefix of buffer_ already handed out
  bool failed_ = false;
  WireError failure_ = WireError::kProtocol;
  std::uint32_t max_frame_bytes_ = kMaxFrameBytes;
};

}  // namespace rtmobile::net
