// One accepted TCP connection = one recognizer stream.
//
// The connection owns the socket, the deframer, the outbound byte
// buffer, and the per-stream protocol state machine; the server above it
// owns only the epoll loop. All methods run on the server's event-loop
// thread, so no locking — concurrency lives inside the engine.
//
// Backpressure, both directions:
//  - ingress: when ShardedEngine::submit_audio / finish_stream /
//    close_stream report backpressure (false), the rejected operation is
//    parked and the connection pauses — it stops reading its socket and
//    stops consuming buffered frames, so the kernel receive buffer fills
//    and TCP pushes back on the client. pump_pending() retries each loop
//    iteration; progress resumes reading.
//  - egress: event frames queue in an in-memory write buffer so a
//    compute thread never blocks on a slow client socket. A client that
//    reads so slowly the buffer would exceed its cap is dropped as a
//    slow consumer (the protective cap is the contract: bounded memory
//    per connection).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/wire_protocol.hpp"
#include "serve/recognizer.hpp"

namespace rtmobile::obs {
class Telemetry;
}

namespace rtmobile::fault {
class FaultInjector;
}

namespace rtmobile::serve {
class ShardedEngine;
}

namespace rtmobile::net {

class Connection {
 public:
  /// Takes ownership of the (non-blocking) socket `fd`.
  /// `max_write_buffer` caps queued outbound bytes (slow-consumer
  /// limit). `telemetry` (nullable) receives wire byte counters,
  /// protocol-error / slow-consumer / ingress-pause counts, and
  /// socket-write spans. `fault` (nullable) arms the kConnRead /
  /// kConnWrite injection sites — a fired site behaves exactly like a
  /// peer reset at that point.
  Connection(int fd, serve::ShardedEngine& engine,
             std::size_t max_write_buffer,
             obs::Telemetry* telemetry = nullptr,
             fault::FaultInjector* fault = nullptr);
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  [[nodiscard]] int fd() const { return fd_; }

  /// Socket became readable: drain it (edge-triggered contract) unless
  /// paused by ingress backpressure, then run the protocol machine.
  void on_readable();
  /// Socket became writable: flush the outbound buffer.
  void on_writable();
  /// Retries parked recognizer operations; on progress, resumes the
  /// paused read path (including bytes that arrived while paused).
  void pump_pending();
  /// Queues one hypothesis event for this connection's stream. The
  /// final event also releases the recognizer stream.
  void deliver_event(const speech::StreamEvent& event);
  /// Attempts to flush queued outbound bytes now (call after queueing).
  void try_flush();

  /// True while a backpressured operation is parked (reads are paused).
  [[nodiscard]] bool paused() const {
    return !pending_audio_.empty() || pending_finish_ || pending_close_;
  }
  /// Outbound bytes still queued (the server arms EPOLLOUT on this).
  [[nodiscard]] bool wants_write() const {
    return write_pos_ < write_buf_.size();
  }
  /// The connection is finished (failed, or closed and flushed) and the
  /// server should destroy it.
  [[nodiscard]] bool should_drop() const {
    return dead_ || (want_close_ && !wants_write());
  }
  /// The recognizer stream this connection fronts. Only meaningful when
  /// has_stream() — 0 is a *valid* handle id (ShardedEngine's first
  /// slot), so it cannot double as a none sentinel.
  [[nodiscard]] std::uint64_t handle_id() const { return handle_.id; }
  [[nodiscard]] bool has_stream() const { return has_stream_; }
  /// True once the stream's final event has been queued to the wire.
  [[nodiscard]] bool finished() const { return saw_final_; }

  // ---- connection deadlines (driven by the server's timer sweep) ----
  /// Steady-clock stamp (us) of the last socket activity in either
  /// direction — what the server's idle timer measures against.
  [[nodiscard]] std::uint64_t last_activity_us() const {
    return last_activity_us_;
  }
  /// Steady-clock stamp (us) of the last outbound progress while bytes
  /// were queued (re-stamped whenever the buffer goes from empty to
  /// non-empty) — what the write-stall timer measures against.
  [[nodiscard]] std::uint64_t last_write_progress_us() const {
    return last_write_progress_us_;
  }
  /// Idle deadline expired: best-effort typed kTimeout error, then
  /// close-after-flush (the socket is presumed still writable).
  void expire_idle();
  /// Write-stall deadline expired: the socket is not draining, so there
  /// is no way to deliver an error frame — drop immediately.
  void expire_write_stalled();

 private:
  void process_frames();
  void dispatch(const Frame& frame);
  void handle_open(const Frame& frame);
  void handle_audio(const Frame& frame);
  void handle_finish();
  void handle_close();
  /// Queues a typed terminal error and schedules close-after-flush.
  void fail(WireError error, std::string_view message);
  /// Releases the recognizer stream (parking the close on backpressure).
  void release_stream();
  [[nodiscard]] bool queue_bytes_ok(std::size_t incoming);
  /// Counts one transition into the ingress-paused state.
  void note_ingress_pause();

  /// Stamps write progress before queueing when the buffer was empty —
  /// a stall clock must start when bytes first wait, not when the buffer
  /// last happened to drain.
  void note_queueing();

  int fd_;
  serve::ShardedEngine& engine_;
  const std::size_t max_write_buffer_;
  obs::Telemetry* telemetry_;  // non-owning; null = observability off
  fault::FaultInjector* fault_;  // non-owning; null = no injection

  std::uint64_t last_activity_us_ = 0;
  std::uint64_t last_write_progress_us_ = 0;

  FrameDecoder decoder_;
  std::vector<std::uint8_t> write_buf_;
  std::size_t write_pos_ = 0;

  serve::StreamHandle handle_{};
  bool has_stream_ = false;
  bool finish_sent_ = false;  // kFinish forwarded to the recognizer
  bool saw_final_ = false;    // final event queued to the wire
  bool want_close_ = false;   // close once the write buffer drains
  bool dead_ = false;         // drop immediately (peer gone / fatal)

  // Parked backpressured operations (see file comment).
  std::vector<float> pending_audio_;
  bool pending_finish_ = false;
  bool pending_close_ = false;
  bool read_ready_while_paused_ = false;

  std::vector<float> audio_scratch_;  // decode_audio target, reused
};

}  // namespace rtmobile::net
