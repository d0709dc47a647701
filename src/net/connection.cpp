#include "net/connection.hpp"

#include <errno.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <chrono>
#include <exception>

#include "fault/fault_injector.hpp"
#include "obs/telemetry.hpp"
#include "serve/sharded_engine.hpp"
#include "util/logging.hpp"

namespace rtmobile::net {

namespace {
/// One socket-read granule. Edge-triggered epoll requires draining to
/// EAGAIN, so the size only trades syscalls against stack usage.
constexpr std::size_t kReadChunk = 64 * 1024;

/// Steady-clock microseconds: connection deadlines must not jump when
/// the wall clock is adjusted.
std::uint64_t steady_now_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
}  // namespace

Connection::Connection(int fd, serve::ShardedEngine& engine,
                       std::size_t max_write_buffer,
                       obs::Telemetry* telemetry,
                       fault::FaultInjector* fault)
    : fd_(fd),
      engine_(engine),
      max_write_buffer_(max_write_buffer),
      telemetry_(telemetry),
      fault_(fault),
      last_activity_us_(steady_now_us()),
      last_write_progress_us_(last_activity_us_) {}

Connection::~Connection() {
  // A connection dying with a live stream abandons it. close_stream may
  // itself backpressure; retry briefly, then leak the stream rather than
  // block the event loop (the engine reclaims it at shutdown).
  if (has_stream_) {
    for (int attempt = 0; attempt < 64; ++attempt) {
      bool closed = false;
      try {
        closed = engine_.close_stream(handle_);
      } catch (const std::exception&) {
        closed = true;  // already dead server-side; nothing to release
      }
      if (closed) break;
    }
    has_stream_ = false;
  }
  if (fd_ >= 0) ::close(fd_);
}

void Connection::on_readable() {
  if (dead_ || want_close_) return;
  if (fault_ != nullptr &&
      fault_->should_fire(fault::Site::kConnRead,
                          static_cast<std::uint64_t>(fd_))) {
    dead_ = true;  // injected peer reset on the read path
    return;
  }
  if (paused()) {
    // Ingress backpressure: leave the bytes in the kernel buffer so TCP
    // pushes back on the client; pump_pending() resumes us.
    read_ready_while_paused_ = true;
    return;
  }
  std::array<std::uint8_t, kReadChunk> chunk;
  for (;;) {
    const ssize_t n = ::recv(fd_, chunk.data(), chunk.size(), 0);
    if (n > 0) {
      last_activity_us_ = steady_now_us();
      if (telemetry_ != nullptr) {
        telemetry_->net().bytes_in->add(static_cast<std::uint64_t>(n));
      }
      decoder_.feed({chunk.data(), static_cast<std::size_t>(n)});
      process_frames();
      // A frame may have paused us (backpressure) or killed the
      // connection mid-read; stop pulling more bytes either way.
      if (paused() || dead_ || want_close_) {
        read_ready_while_paused_ = paused();
        return;
      }
      continue;
    }
    if (n == 0) {  // peer closed its end
      dead_ = true;
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;  // drained
    if (errno == EINTR) continue;
    dead_ = true;  // ECONNRESET and friends
    return;
  }
}

void Connection::process_frames() {
  Frame frame;
  while (!paused() && !dead_ && !want_close_ && decoder_.next(frame)) {
    dispatch(frame);
  }
  if (decoder_.failed() && !want_close_ && !dead_) {
    // The decoder records *why* framing broke; a declared length past
    // the cap gets its own typed error so clients can tell a resource
    // refusal from a corrupt stream.
    if (decoder_.failure() == WireError::kFrameTooLarge) {
      fail(WireError::kFrameTooLarge,
           "declared frame length exceeds the server's frame cap");
    } else {
      fail(WireError::kProtocol, "unrecoverable framing error (bad length)");
    }
  }
}

void Connection::dispatch(const Frame& frame) {
  try {
    switch (frame.type) {
      case FrameType::kOpen:
        handle_open(frame);
        return;
      case FrameType::kAudio:
        handle_audio(frame);
        return;
      case FrameType::kFinish:
        handle_finish();
        return;
      case FrameType::kClose:
        handle_close();
        return;
      default:
        fail(WireError::kProtocol, "unexpected frame type from client");
        return;
    }
  } catch (const std::exception& e) {
    fail(WireError::kServerError, e.what());
  }
}

void Connection::handle_open(const Frame& frame) {
  if (has_stream_ || saw_final_ || finish_sent_) {
    fail(WireError::kProtocol, "duplicate open on this connection");
    return;
  }
  OpenRequest request;
  if (!decode_open(frame.payload, request)) {
    fail(WireError::kProtocol, "malformed open payload");
    return;
  }
  const serve::OpenResult result =
      engine_.try_open_stream(request.to_stream_config());
  switch (result.status) {
    case serve::OpenStatus::kOk:
      break;
    case serve::OpenStatus::kRejectedOverBudget:
      // Open-time admission control: the deployment is already lagging
      // past this stream's deadline budget — typed refusal, not service.
      fail(WireError::kRejectedOverBudget,
           "projected lag exceeds the requested deadline budget");
      return;
    case serve::OpenStatus::kBackpressure:
      fail(WireError::kBackpressureOverflow,
           "admission path congested; retry the connection");
      return;
  }
  handle_ = result.handle;
  has_stream_ = true;
  std::vector<std::uint8_t> reply;
  append_opened(reply, handle_.id);
  if (queue_bytes_ok(reply.size())) {
    note_queueing();
    write_buf_.insert(write_buf_.end(), reply.begin(), reply.end());
  }
}

void Connection::handle_audio(const Frame& frame) {
  if (!has_stream_) {
    fail(WireError::kProtocol, "audio before open");
    return;
  }
  if (finish_sent_) {
    fail(WireError::kProtocol, "audio after finish");
    return;
  }
  audio_scratch_.clear();
  if (!decode_audio(frame.payload, audio_scratch_)) {
    fail(WireError::kProtocol, "audio payload not a whole sample count");
    return;
  }
  if (audio_scratch_.empty()) return;
  if (!engine_.submit_audio(handle_, audio_scratch_)) {
    // Ingress backpressure: park the chunk and pause reads (TCP now
    // backpressures the client); pump_pending() retries.
    pending_audio_ = audio_scratch_;
    note_ingress_pause();
  }
}

void Connection::handle_finish() {
  if (!has_stream_ || finish_sent_) {
    fail(WireError::kProtocol, finish_sent_ ? "duplicate finish"
                                            : "finish before open");
    return;
  }
  finish_sent_ = true;
  if (!engine_.finish_stream(handle_)) {
    pending_finish_ = true;
    note_ingress_pause();
  }
}

void Connection::handle_close() {
  release_stream();
  want_close_ = true;
}

void Connection::pump_pending() {
  if (dead_) return;
  bool progressed = false;
  try {
    if (!pending_audio_.empty() && has_stream_) {
      if (engine_.submit_audio(handle_, pending_audio_)) {
        pending_audio_.clear();
        progressed = true;
      }
    }
    if (pending_audio_.empty() && pending_finish_ && has_stream_) {
      if (engine_.finish_stream(handle_)) {
        pending_finish_ = false;
        progressed = true;
      }
    }
    if (pending_close_ && has_stream_) {
      if (engine_.close_stream(handle_)) {
        pending_close_ = false;
        has_stream_ = false;
        progressed = true;
      }
    }
  } catch (const std::exception& e) {
    pending_audio_.clear();
    pending_finish_ = false;
    pending_close_ = false;
    has_stream_ = false;
    fail(WireError::kServerError, e.what());
    return;
  }
  if (progressed) {
    // Frames buffered behind the backpressure point come first; they may
    // immediately re-park us, in which case read_ready_while_paused_
    // stays set and the next retry resumes again — clearing it before
    // this drain completes would strand buffered bytes forever.
    process_frames();
    if (!paused() && !dead_ && !want_close_ && read_ready_while_paused_) {
      read_ready_while_paused_ = false;
      on_readable();
    }
  }
}

void Connection::deliver_event(const speech::StreamEvent& event) {
  if (dead_) return;
  std::vector<std::uint8_t> encoded;
  append_event(encoded, event);
  if (!queue_bytes_ok(encoded.size())) return;
  note_queueing();
  write_buf_.insert(write_buf_.end(), encoded.begin(), encoded.end());
  if (event.is_final) {
    saw_final_ = true;
    // The stream is complete: release recognizer resources now instead
    // of holding them until the client gets around to kClose.
    release_stream();
  }
}

void Connection::release_stream() {
  if (!has_stream_) return;
  pending_audio_.clear();
  pending_finish_ = false;
  try {
    if (engine_.close_stream(handle_)) {
      has_stream_ = false;
    } else {
      pending_close_ = true;  // retried by pump_pending
      note_ingress_pause();
    }
  } catch (const std::exception&) {
    has_stream_ = false;  // stream already dead server-side
  }
}

bool Connection::queue_bytes_ok(std::size_t incoming) {
  if (write_buf_.size() - write_pos_ + incoming <= max_write_buffer_) {
    return true;
  }
  // Slow consumer: the client is not reading fast enough for the events
  // its stream produces. Dropping beats unbounded buffering; the cap is
  // the bounded-memory contract that lets compute threads fire-and-forget.
  RT_LOG(Info, "net") << "stream=" << (has_stream_ ? handle_.id : 0)
                      << " dropping slow consumer (write buffer over "
                      << max_write_buffer_ << " bytes)";
  if (telemetry_ != nullptr) telemetry_->net().slow_consumer_drops->add(1);
  release_stream();
  dead_ = true;
  return false;
}

void Connection::note_ingress_pause() {
  if (telemetry_ != nullptr) telemetry_->net().ingress_pauses->add(1);
}

void Connection::try_flush() {
  if (dead_ || write_pos_ >= write_buf_.size()) return;
  if (fault_ != nullptr &&
      fault_->should_fire(fault::Site::kConnWrite,
                          static_cast<std::uint64_t>(fd_))) {
    dead_ = true;  // injected peer reset on the write path
    return;
  }
  RT_SPAN(telemetry_ != nullptr ? &telemetry_->trace() : nullptr,
          kSocketWrite, has_stream_ ? handle_.id : obs::kNoStream);
  while (write_pos_ < write_buf_.size()) {
    const ssize_t n = ::send(fd_, write_buf_.data() + write_pos_,
                             write_buf_.size() - write_pos_, MSG_NOSIGNAL);
    if (n > 0) {
      last_activity_us_ = steady_now_us();
      last_write_progress_us_ = last_activity_us_;
      if (telemetry_ != nullptr) {
        telemetry_->net().bytes_out->add(static_cast<std::uint64_t>(n));
      }
      write_pos_ += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;  // EPOLLOUT later
    if (errno == EINTR) continue;
    dead_ = true;
    return;
  }
  // Fully flushed: reclaim the buffer so long streams don't accrete.
  write_buf_.clear();
  write_pos_ = 0;
}

void Connection::on_writable() { try_flush(); }

void Connection::fail(WireError error, std::string_view message) {
  RT_LOG(Debug, "net") << "stream=" << (has_stream_ ? handle_.id : 0)
                       << " failing connection: " << message;
  if (error == WireError::kProtocol && telemetry_ != nullptr) {
    telemetry_->net().protocol_errors->add(1);
  }
  release_stream();
  std::vector<std::uint8_t> encoded;
  append_error(encoded, error, message);
  if (write_buf_.size() - write_pos_ + encoded.size() <= max_write_buffer_) {
    note_queueing();
    write_buf_.insert(write_buf_.end(), encoded.begin(), encoded.end());
  }
  want_close_ = true;
}

void Connection::note_queueing() {
  if (write_pos_ >= write_buf_.size()) {
    last_write_progress_us_ = steady_now_us();
  }
}

void Connection::expire_idle() {
  if (dead_ || want_close_) return;
  if (telemetry_ != nullptr) telemetry_->fault().reaped_connections->add(1);
  fail(WireError::kTimeout, "connection idle past the server's deadline");
}

void Connection::expire_write_stalled() {
  if (dead_) return;
  RT_LOG(Info, "net") << "stream=" << (has_stream_ ? handle_.id : 0)
                      << " dropping write-stalled connection";
  if (telemetry_ != nullptr) telemetry_->fault().reaped_connections->add(1);
  release_stream();
  dead_ = true;
}

}  // namespace rtmobile::net
