// The value types of the serving surface: audio in, incremental
// hypotheses out.
//
// serve::ShardedEngine is the one stream API a speech client codes
// against. A single-engine deployment is a one-shard engine the caller
// drives (no start(); drain()/pump_shard() step it), a fleet is N
// started shards behind a router, and the client code is the same:
//
//   StreamHandle h = engine.open_stream({});          // router decides
//   while (audio) engine.submit_audio(h, chunk);      // backpressured
//   engine.finish_stream(h);
//   ... engine.poll_events(h, events);                // partials stream
//   // final hypothesis = concatenation of every event's stable delta
//
// Every stream carries an incremental speech::StreamingDecoder; its
// StreamEvents (stable decoded prefix + unstable partial tail) are the
// product output, with the final hypothesis bit-identical to the batch
// greedy_decode / viterbi_decode of the stream's logits. Events are a
// pure function of the logit-row stream, so they are identical across
// shard counts, chunk sizes, shard placements, and live migrations.
#pragma once

#include <cstddef>
#include <cstdint>

#include "runtime/scheduler.hpp"
#include "speech/streaming_decoder.hpp"

namespace rtmobile::serve {

/// Opaque ticket for one client stream, valid for the engine that
/// issued it.
struct StreamHandle {
  std::uint64_t id = 0;
};

/// Why try_open_stream did (or did not) admit a stream. A transport maps
/// each failure to a distinct wire error instead of inferring the cause
/// from a bool or an invalid handle.
enum class OpenStatus : std::uint8_t {
  kOk,
  /// Open-time admission control refused the stream: the deployment's
  /// projected lag already exceeds the stream's deadline budget, so
  /// serving it would only waste compute on frames it is bound to shed.
  /// Only streams that ask for a deadline (config.deadline.enabled())
  /// are ever refused this way.
  kRejectedOverBudget,
  /// The admission path itself is congested (e.g. a shard's ingress ring
  /// is full). Transient: the caller retries or surfaces backpressure.
  kBackpressure,
};

[[nodiscard]] const char* to_string(OpenStatus status);

/// try_open_stream's result: `handle` is valid only when `status == kOk`.
struct OpenResult {
  StreamHandle handle;
  OpenStatus status = OpenStatus::kOk;

  [[nodiscard]] bool ok() const { return status == OpenStatus::kOk; }
};

/// Per-stream options a client passes at open time.
struct StreamConfig {
  /// In-loop decoding. The default emits greedy partial hypotheses;
  /// kViterbi upgrades to the duration-penalty DP; kNone collects logits
  /// only (no events).
  speech::StreamingDecoderConfig decode;
  /// Real-time budget: how long the stream's oldest queued audio may
  /// wait before the engine's overload policy may shed its overdue
  /// frames or reject the stream (0 = no deadline; the default).
  runtime::StreamDeadline deadline;
  /// Client affinity key for the session-hash routing policy (other
  /// policies, and a one-shard engine, ignore it).
  std::uint64_t session_key = 0;
};

/// Per-stream deadline accounting snapshot (see StreamingSession's
/// real-time clock model).
struct StreamDeadlineStats {
  /// How long the stream's oldest queued frame has been waiting, in
  /// seconds (0 when caught up), as last published by the round that
  /// served the stream.
  double lag_seconds = 0.0;
  std::size_t shed_frames = 0;      // frames dropped by shed/reject
  std::size_t deadline_misses = 0;  // frames served past the budget
  bool rejected = false;            // terminated by OverloadPolicy::kReject
};

/// A hypothesis update tagged with the stream it belongs to (the
/// drain-all poll's result element).
struct RecognizerEvent {
  StreamHandle stream;
  speech::StreamEvent event;
};

}  // namespace rtmobile::serve
