// The serving engine: one stream API, one implementation, 1..N shards.
//
// A ShardedEngine owns N engine replicas ("shards"): each shard compiles
// its own CompiledSpeechModel instance, owns a private thread pool
// (optionally pinned to a disjoint core range so shards never fight over
// cores), an InferenceEngine multiplexing that shard's streams, and a
// bounded MPSC SubmissionQueue as its ingress. Client threads enqueue
// audio chunks through the queue without ever taking an engine step
// lock; one pump thread per shard applies queued commands and steps its
// engine. A ShardRouter admits each new stream to a shard (round-robin,
// least-loaded by queue depth, or session-hash affinity), and a
// StatsAggregator folds per-shard RuntimeStats into the fleet view. The
// value types of the stream API (handles, open results, events) live in
// serve/recognizer.hpp.
//
// Two execution modes:
//  - threaded: start() launches one pump thread per shard; stop() is a
//    graceful shutdown that serves everything already submitted before
//    returning.
//  - synchronous: without start(), the caller drives pump_shard()/
//    drain() directly. This is the single-engine deployment (shards = 1,
//    one caller submitting and stepping, e.g. a drive-mode
//    net::RecognizerServer), the mode tests use to prove that per-stream
//    logits are bit-identical regardless of shard placement, and the
//    mode in which drain_shard() migrates live streams (hidden state,
//    queued frames, and produced logits intact) onto sibling shards.
//    Opens and closes apply in place; audio and finish commands queue
//    until the next pump_shard()/drain().
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "compiler/gru_executor.hpp"
#include "hw/timer.hpp"
#include "runtime/inference_engine.hpp"
#include "serve/recognizer.hpp"
#include "serve/shard_router.hpp"
#include "serve/stats_aggregator.hpp"
#include "serve/submission_queue.hpp"

namespace rtmobile::obs {
class Gauge;
}

namespace rtmobile::fault {
class FaultInjector;
}

namespace rtmobile::serve {

/// A shard's place in the supervisor's health state machine.
enum class ShardHealth : std::uint8_t {
  kHealthy = 0,     // in rotation, pump serving
  kQuarantined,     // declared unhealthy; out of rotation, being seized
  kFailed,          // failed over: live streams migrated; can rejoin
  kLost,            // pump wedged past the grace; streams were aborted
};

[[nodiscard]] const char* to_string(ShardHealth health);

/// The shard supervisor's knobs. With `enabled` false (the default) no
/// monitor thread runs and every pre-existing failure semantic is
/// unchanged (a dead pump throws at producers, stop() rethrows).
struct SupervisorConfig {
  bool enabled = false;
  /// Monitor wake period.
  std::chrono::milliseconds check_interval{2};
  /// A pump whose heartbeat is older than this is declared stalled.
  std::chrono::milliseconds stall_timeout{250};
  /// How long a stalled pump gets to park cooperatively (state-clean,
  /// between rounds) before its streams are aborted instead of replayed.
  std::chrono::milliseconds park_grace{100};
  /// Probe and restart failed shards automatically after rejoin_backoff.
  bool auto_rejoin = false;
  std::chrono::milliseconds rejoin_backoff{50};
};

struct ShardConfig {
  /// Engine replicas to run. Each compiles its own copy of the model.
  std::size_t shards = 2;
  RoutePolicy policy = RoutePolicy::kLeastLoaded;
  /// Per-shard ingress ring capacity (commands; rounded up to a power of
  /// two). A full ring surfaces as submit_audio() returning false.
  std::size_t queue_capacity = 1024;
  /// Pool width per shard (1 = the pump thread computes alone).
  std::size_t threads_per_shard = 1;
  /// Pin shard s's pump + pool onto cores [s*threads_per_shard, ...), the
  /// core-range hint recorded in each replica's CompilerOptions.
  bool pin_cores = false;
  /// Per-shard engine settings (max_batch, default MFCC front end).
  /// `engine.fault` (nullable) also arms the serve-layer injection
  /// sites: each shard keys its engine, pump, and ingress ring by its
  /// shard index, so a spec can kill exactly one replica.
  runtime::EngineConfig engine;
  /// Shard failure detection + failover (off by default).
  SupervisorConfig supervisor;
};

class ShardedEngine {
 public:
  /// Compiles `config.shards` replicas of `model` under `options` (the
  /// per-shard thread width and core range are filled in per replica).
  ShardedEngine(const SpeechModel& model,
                const std::map<std::string, BlockMask>& masks,
                const CompilerOptions& options, ShardConfig config);
  ~ShardedEngine();

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] const ShardConfig& config() const { return config_; }
  [[nodiscard]] const CompiledSpeechModel& shard_model(std::size_t s) const;

  // ---- stream lifecycle (any thread) ----
  /// Admits a new stream; the router picks its shard (config.session_key
  /// drives the session-hash policy: clients reusing a key stick to one
  /// shard; other policies ignore it). The stream's decoder config rides
  /// the open command to its shard.
  ///
  /// Typed admission: the outcome is a status, never a throw or a spin.
  /// kRejectedOverBudget: the stream carries a deadline budget and even
  /// the shard the router would pick last published a worst-stream lag
  /// beyond it (every shard is at least that far behind, so the stream's
  /// frames would be shed on arrival). kBackpressure: the target shard's
  /// ingress ring had no room for the open command (transient; the slot
  /// is recycled, nothing leaks).
  [[nodiscard]] OpenResult try_open_stream(const StreamConfig& config);
  /// try_open_stream that retries kBackpressure (yielding between
  /// attempts) and throws std::runtime_error on kRejectedOverBudget —
  /// transports that need to degrade instead of throw call
  /// try_open_stream directly.
  [[nodiscard]] StreamHandle open_stream(const StreamConfig& config);
  [[nodiscard]] StreamHandle open_stream() {
    return open_stream(StreamConfig{});
  }
  /// Logits-only surface: a keyed stream with NO in-loop decoding —
  /// logits-only callers (and their benchmark baselines) keep their
  /// workload. New code passes a StreamConfig, where decoding defaults
  /// on.
  [[nodiscard]] StreamHandle open_stream(std::uint64_t session_key);
  /// Enqueues an audio chunk on the stream's shard without taking any
  /// engine lock. Returns false when the shard's ingress ring is full —
  /// backpressure the caller handles by retrying or dropping. Throws if
  /// the shard's pump died on an internal error (retrying could never
  /// succeed); stop() reports the underlying cause.
  [[nodiscard]] bool submit_audio(StreamHandle h,
                                  std::span<const float> samples);
  /// Marks end of audio (releases the front end's lookahead tail). Same
  /// backpressure contract as submit_audio.
  [[nodiscard]] bool finish_stream(StreamHandle h);
  /// Releases the stream's session (results included) once the client
  /// has read its logits — without this, finished sessions accumulate on
  /// their engines forever. Closing a live stream abandons it. Same
  /// backpressure contract as submit_audio. The handle is dead once the
  /// close is issued: the owning client must not race stream_logits()
  /// against close_stream() on the same handle (same rule as read()
  /// racing close() on a file descriptor).
  [[nodiscard]] bool close_stream(StreamHandle h);

  // ---- hypothesis events (any thread) ----
  /// Drains the stream's hypothesis events into `out`. Each shard's pump
  /// flushes its sessions' events into a per-stream mailbox after every
  /// scheduling round, so polling never touches an engine; mailboxes
  /// live in the handle table, so an event survives its stream's
  /// migration to another shard.
  std::size_t poll_events(StreamHandle h,
                          std::vector<speech::StreamEvent>& out);
  /// Drain-all: every stream's pending events, tagged with their handles.
  /// Deterministic order: streams appear in ascending handle id
  /// (per-stream event order preserved), identical across shard counts
  /// and runs.
  std::size_t poll_events(std::vector<RecognizerEvent>& out);
  /// Blocks until some mailbox holds an event or `timeout` elapses;
  /// true when events are (or may be) pending, false on timeout. The
  /// event-loop hook: a transport's poll thread sleeps here instead of
  /// spin-polling poll_events. Every round that publishes events
  /// notifies, whether a pump or a synchronous caller ran it. Spurious
  /// wakeups are allowed, and a true return does not reserve the events
  /// (a concurrent poller may drain them first); false guarantees only
  /// that no event was pending for one full timeout.
  bool wait_for_events(std::chrono::microseconds timeout);

  /// True once the stream's audio is finished and every frame is served.
  /// After it returns true, stream_logits() is safe from any thread (for
  /// as long as the handle is not closed). Throws if the stream's shard
  /// died before completing it — it would otherwise never flip.
  [[nodiscard]] bool stream_done(StreamHandle h) const;
  /// The stream's deadline accounting as last published by its shard's
  /// pump (after every scheduling round) — readable from any thread
  /// without touching the engine.
  [[nodiscard]] StreamDeadlineStats stream_deadline_stats(StreamHandle h) const;
  /// The stream's logits so far. Requires the stream to be done, or the
  /// engine to be out of threaded mode (no pump running).
  [[nodiscard]] Matrix stream_logits(StreamHandle h) const;
  /// Which shard currently serves the stream (moves on migration).
  [[nodiscard]] std::size_t stream_shard(StreamHandle h) const;

  // ---- threaded mode ----
  /// Launches one pump thread per shard.
  void start();
  /// Graceful shutdown: pumps finish every command already enqueued and
  /// step their engines dry before exiting; submissions that raced the
  /// stop are then flushed synchronously until the rings read empty. A
  /// submission landing after that final sweep (producers must quiesce
  /// for a strict guarantee) is served by the next drain() or start().
  /// If a pump died on an internal error, stop() rethrows it (first one
  /// wins) after the remaining shards are wound down.
  void stop();
  [[nodiscard]] bool running() const {
    return running_.load(std::memory_order_acquire);
  }

  // ---- synchronous mode (no pump threads) ----
  /// One scheduling round for one shard: applies all queued commands,
  /// then one engine step. Returns units of work done (commands+frames).
  std::size_t pump_shard(std::size_t s);
  /// Pumps all shards round-robin until no shard makes progress (all
  /// submitted audio served). Returns total frames stepped.
  std::size_t drain();

  // ---- shard drain / migration (synchronous mode) ----
  /// Gracefully drains shard `s`: stops admission, flushes its ingress
  /// queue, and migrates its live streams onto admissible sibling shards
  /// with hidden state, pending frames, and logits intact. Finished
  /// streams stay readable where they are. Returns streams migrated.
  /// Producers may keep submitting concurrently: every routed push takes
  /// the stream's route latch, so per-stream command order survives the
  /// re-route (no lost or duplicated commands).
  std::size_t drain_shard(std::size_t s);
  /// Re-opens (or closes) a shard for new-stream admission.
  void set_shard_admissible(std::size_t s, bool admissible);

  // ---- fault tolerance (supervision, failover, rejoin) ----
  [[nodiscard]] ShardHealth shard_health(std::size_t s) const;
  /// Pump scheduling rounds completed (the supervisor's heartbeat word).
  [[nodiscard]] std::uint64_t shard_heartbeat(std::size_t s) const;
  /// Fails shard `s` over: flushes its ring (re-routing stranded
  /// commands), migrates its live streams to healthy siblings with state
  /// intact, and marks it kFailed. In threaded mode the supervisor calls
  /// this after seizing a dead/parked pump; callers may invoke it
  /// directly in synchronous mode (no pumps). Returns streams migrated.
  std::size_t fail_over_shard(std::size_t s);
  /// Last-resort path for a shard whose engine state cannot be trusted
  /// (wedged pump): every live stream routed to it gets a terminal
  /// kAborted event in its mailbox — typed failure, never silence — and
  /// the shard is marked kLost. Returns streams aborted.
  std::size_t abort_shard_streams(std::size_t s);
  /// Probes a kFailed shard with a synthetic utterance on its own
  /// engine; on success clears its failure state, restarts its pump
  /// (threaded mode), and re-admits it. False = probe failed, shard
  /// stays failed.
  bool rejoin_shard(std::size_t s);

  // ---- load & stats ----
  /// The router's load signal: ingress-queue depth, live streams, and
  /// the engine-internal frame backlog the shard last published.
  [[nodiscard]] std::size_t load(std::size_t s) const;
  [[nodiscard]] std::size_t queue_depth(std::size_t s) const;
  /// Worst-stream lag (seconds) the shard last published — the signal
  /// the least-lag routing policy minimizes.
  [[nodiscard]] double shard_lag_seconds(std::size_t s) const;
  /// Per-shard engine stats (requires no pump running).
  [[nodiscard]] const runtime::RuntimeStats& shard_stats(std::size_t s) const;
  /// Shard `s`'s engine-owned prefix result cache — each replica caches
  /// shard-locally, so residency/eviction totals are per shard (null
  /// when ShardConfig::engine.cache is off; requires no pump running).
  [[nodiscard]] const cache::PrefixCache* shard_cache(std::size_t s) const;
  /// Sessions currently held by a shard's engine — live plus
  /// done-but-not-closed (requires no pump running).
  [[nodiscard]] std::size_t shard_session_count(std::size_t s) const;
  /// Fleet view: merged counters/latency plus capacity and wall-clock
  /// throughput over the threaded serving windows accumulated since the
  /// last reset_stats (requires no pump running).
  [[nodiscard]] GlobalStats stats() const;
  void reset_stats();

 private:
  struct StreamEntry {
    std::atomic<std::size_t> shard{0};
    std::atomic<runtime::StreamingSession*> session{nullptr};
    std::atomic<bool> done{false};
    /// Hypothesis events flushed out of the stream's session by its
    /// shard's pump, awaiting a client poll. Guarded by its own tiny
    /// mutex: the pump appends between scheduling rounds, the client
    /// drains — neither path ever holds an engine lock. Lives here (not
    /// on the shard) so pending events follow the stream through
    /// migration.
    std::mutex events_mutex;
    std::vector<speech::StreamEvent> events;
    /// Deadline accounting published by the stream's pump after every
    /// scheduling round (see publish_deadline), so clients can read lag
    /// and overload counters without touching an engine.
    std::atomic<double> lag_us{0.0};
    std::atomic<std::size_t> shed_frames{0};
    std::atomic<std::size_t> deadline_misses{0};
    std::atomic<bool> rejected{false};
    /// Bumped every time the slot is reissued to a new stream; a handle
    /// whose generation no longer matches is stale (its stream was
    /// closed and the slot reused) and is rejected instead of silently
    /// aliasing the new occupant.
    std::atomic<std::uint64_t> generation{0};
    /// The client key open_stream was given; migration re-hashes it so
    /// session-hash placement stays consistent with future streams of
    /// the same client. Written once at admission, before the handle is
    /// published.
    std::uint64_t session_key = 0;
    /// Per-stream route latch (tiny spinlock): every producer push reads
    /// `shard` and enqueues under it, and migration/failover re-routes a
    /// stream only while holding it. That makes a seized ring provably
    /// quiescent and keeps each stream's command order exact across a
    /// re-route — the invariant the failover replay guarantee rests on.
    std::atomic<bool> route_latch{false};
    /// Set by abort_shard_streams: the stream got its terminal kAborted
    /// event and its session (if any) is stranded in a lost shard. Pump
    /// publishing paths skip orphaned entries; a revived pump reclaims
    /// their sessions.
    std::atomic<bool> orphaned{false};
  };

  struct Shard {
    std::unique_ptr<ThreadPool> pool;  // null when threads_per_shard == 1
    std::unique_ptr<CompiledSpeechModel> model;
    std::unique_ptr<runtime::InferenceEngine> engine;
    std::unique_ptr<SubmissionQueue> queue;
    std::thread pump;
    /// Live streams owned by this shard; touched only by its pump (or
    /// the caller in synchronous mode).
    std::unordered_map<std::uint64_t, runtime::StreamingSession*> local;
    std::atomic<std::size_t> live_streams{0};
    /// Engine-internal frame backlog, republished after every pump
    /// round so the router can read it without touching the engine.
    std::atomic<std::size_t> backlog{0};
    /// Worst-stream lag (us), republished alongside the backlog — what
    /// the least-lag routing policy reads.
    std::atomic<double> max_lag_us{0.0};
    /// First internal error that killed the pump (written by the pump
    /// before exiting, read after join); rethrown by stop().
    std::exception_ptr failure;
    /// Set when the pump dies so producers fail fast (throw when
    /// unsupervised; backpressure under supervision, which re-routes)
    /// instead of spinning on a ring nobody drains.
    std::atomic<bool> dead{false};
    /// Heartbeat words: rounds completed + a steady-clock stamp written
    /// at the top of every pump round. The supervisor declares the pump
    /// stalled when the stamp goes stale.
    std::atomic<std::uint64_t> heartbeat{0};
    std::atomic<std::uint64_t> heartbeat_us{0};
    /// Cooperative park protocol: the supervisor requests, the pump
    /// acknowledges by exiting between rounds (state-clean), which is
    /// what makes post-park failover replay bit-identical.
    std::atomic<bool> park_requested{false};
    std::atomic<bool> parked{false};
    std::atomic<std::uint8_t> health{
        static_cast<std::uint8_t>(ShardHealth::kHealthy)};
    std::atomic<std::uint64_t> failed_at_us{0};
    /// Adoption inbox: sessions migrated here by a failover land in this
    /// mutex-guarded vector; the pump adopts them at the top of each
    /// round (inbox_size is the cheap empty check).
    std::mutex inbox_mutex;
    std::vector<std::pair<std::uint64_t,
                          std::unique_ptr<runtime::StreamingSession>>>
        inbox;
    std::atomic<std::size_t> inbox_size{0};
    /// Per-shard load gauges (null when ShardConfig::engine.telemetry is
    /// off); publish_backlog writes them beside the atomics they mirror,
    /// so a /metrics scrape sees the same load signal the router does.
    obs::Gauge* queue_depth_gauge = nullptr;
    obs::Gauge* backlog_gauge = nullptr;
    obs::Gauge* lag_gauge = nullptr;
    obs::Gauge* streams_gauge = nullptr;
  };

  // Handle table: a fixed array of lazily allocated blocks. Blocks are
  // only written under admit_mutex_ before the slot is published through
  // slot_count_ (release), so entry() can index without any lock — the
  // chunk-submission path never serializes on the admission mutex.
  // A handle id packs [generation | slot]; closed slots return to a free
  // list and are reissued under a bumped generation, so the table bounds
  // concurrent streams (~1M), not lifetime streams.
  static constexpr std::size_t kEntriesPerBlock = 256;
  static constexpr std::size_t kMaxBlocks = 4096;
  static constexpr std::uint64_t kSlotBits = 20;  // 256 * 4096 = 2^20
  static constexpr std::uint64_t kSlotMask = (1ULL << kSlotBits) - 1;
  struct EntryBlock {
    std::array<StreamEntry, kEntriesPerBlock> entries;
  };

  StreamEntry& entry(StreamHandle h) const;
  /// entry() that reports unknown/stale handles as nullptr instead of
  /// throwing — for the command applier, where a stale command must be
  /// dropped, never kill the shard.
  StreamEntry* try_entry(std::uint64_t id) const;
  bool enqueue(std::size_t shard, StreamCommand&& command);
  /// Reads the stream's current shard and enqueues under its route
  /// latch — the only correct way to push a routed command while
  /// migration/failover may be re-routing the stream.
  bool enqueue_routed(StreamEntry& e, StreamCommand&& command);
  void apply(Shard& shard, StreamCommand&& command);
  std::size_t apply_commands(Shard& shard);
  /// Adopts sessions a failover migrated into this shard's inbox.
  std::size_t adopt_inbox(Shard& shard);
  /// Flushes every local session's decoder events into its stream's
  /// mailbox. Runs after each scheduling round, before mark_done, so a
  /// completing stream's final event is published before its session
  /// leaves `local`.
  void collect_events(Shard& shard);
  void mark_done(Shard& shard);
  /// Publishes every local stream's deadline accounting into its handle
  /// entry. Runs before mark_done so a completing stream's final
  /// counters are published while it is still local.
  void publish_deadline(Shard& shard);
  void publish_backlog(Shard& shard);
  struct RoundResult {
    std::size_t work = 0;    // sessions adopted + commands + frames
    std::size_t frames = 0;  // frames the engine stepped
  };
  /// One scheduling round: adopts migrated sessions, applies queued
  /// commands, steps the engine once (or, with `drain_engine`, until
  /// dry), then publishes events, deadline accounting, completions, and
  /// the backlog, in that order.
  RoundResult run_round(Shard& shard, bool drain_engine);
  void pump_loop(std::size_t s);
  std::vector<std::size_t> snapshot_loads() const;
  std::vector<double> snapshot_lags_us() const;

  // ---- supervision internals ----
  void supervisor_loop();
  /// Marks the shard out of rotation + kQuarantined and counts the
  /// detection. Idempotent per failure.
  void quarantine(std::size_t s);
  /// The seize-and-migrate core shared by drain_shard, fail_over_shard,
  /// and the supervisor: requires the shard's pump to not be running
  /// (never started, parked, or dead-and-joined). Latches every entry
  /// routed to the shard, flushes+re-routes its ring, migrates its live
  /// sessions (adoption inbox in threaded mode, direct adoption in
  /// synchronous mode), and releases the latches.
  std::size_t seize_and_migrate(std::size_t s, bool record_failover);
  /// Supervisor handling of one detected failure (dead or stalled).
  void handle_shard_failure(std::size_t s);
  bool probe_shard(Shard& shard);
  void push_abort_event(StreamEntry& e);
  std::size_t pick_target(std::uint64_t session_key);
  void forward_command(std::size_t target, StreamCommand&& command);

  ShardConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  ShardRouter router_;
  /// Guards admission (table growth + router state); never taken on the
  /// audio-chunk path and never held while stepping an engine.
  mutable std::mutex admit_mutex_;
  std::unique_ptr<std::unique_ptr<EntryBlock>[]> blocks_;
  std::atomic<std::uint64_t> slot_count_{0};  // high-water slots in use
  /// Slots whose streams were closed, awaiting reissue. Pushed by the
  /// applier (pump or sync caller), popped at admission.
  std::mutex free_mutex_;
  std::vector<std::uint32_t> free_slots_;
  /// Unpolled events across every mailbox, maintained at each mailbox
  /// mutation — wait_for_events' predicate, so a waiter never scans the
  /// handle table.
  std::atomic<std::size_t> pending_events_{0};
  std::mutex events_cv_mutex_;
  std::condition_variable events_cv_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  std::thread supervisor_;
  WallTimer window_timer_;  // spans start() .. stop()
  double window_us_ = 0.0;  // threaded window wall time since reset_stats
};

}  // namespace rtmobile::serve
