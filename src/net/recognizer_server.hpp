// Async epoll TCP front for a serve::ShardedEngine.
//
// One event-loop thread multiplexes every connection over edge-triggered
// epoll: non-blocking accept, reads deframed into engine calls,
// hypothesis events fanned back out through per-connection write buffers
// (see connection.hpp for both backpressure directions). The engine
// below is served one of two ways — an unstarted (caller-driven) engine
// stepped inline by the loop (drive_recognizer = true, the loop calls
// drain() between socket work: the single-engine deployment), or a
// started engine whose pump threads serve concurrently
// (drive_recognizer = false; a notifier thread parked in
// ShardedEngine::wait_for_events tickles the loop's eventfd when pumps
// publish events, so the loop never spin-polls).
//
// Two driving modes for the loop itself:
//  - start()/stop(): a background thread owns the loop (production).
//  - run_once(timeout): the caller is the loop (deterministic tests —
//    no hidden thread, every iteration observable).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/connection.hpp"
#include "serve/recognizer.hpp"

namespace rtmobile::net {

struct ServerConfig {
  /// Dotted-quad address to bind. Loopback by default: exposing a
  /// recognizer beyond the host is a deliberate act.
  std::string bind_address = "127.0.0.1";
  /// 0 picks an ephemeral port; read it back with port().
  std::uint16_t port = 0;
  int backlog = 128;
  /// Per-connection outbound cap — the slow-consumer drop threshold.
  std::size_t max_write_buffer = 4U << 20;
  /// True: the loop calls ShardedEngine::drain() every iteration (an
  /// unstarted, caller-driven engine; no other thread may step it).
  /// False: pump threads already serve (a started engine); the loop
  /// only waits on wait_for_events via the notifier thread.
  bool drive_recognizer = true;
  /// Observability sink (nullable). When set, the server counts
  /// accepts/closes/bytes/drops into it AND opens a second listen port
  /// serving `GET /metrics` (Prometheus text) and `GET /metrics.json`
  /// over HTTP/1.0 on the same epoll loop — `curl :metrics_port/metrics`
  /// against a live server. Must outlive the server.
  obs::Telemetry* telemetry = nullptr;
  /// Port for the metrics listener (0 = ephemeral; read back with
  /// metrics_port()). Only bound when telemetry is set.
  std::uint16_t metrics_port = 0;
  /// Reap a connection with no socket activity in either direction for
  /// this long (0 = never). The client gets a typed kTimeout error
  /// before the close. Self-defense against dead/half-open peers that
  /// would otherwise hold stream slots forever.
  std::chrono::milliseconds idle_timeout{0};
  /// Drop a connection whose queued outbound bytes have made no progress
  /// for this long (0 = never). No error frame is possible — the socket
  /// is the thing that is stuck.
  std::chrono::milliseconds write_stall_timeout{0};
  /// Fault-injection harness (nullable). Arms the kConnRead/kConnWrite
  /// sites on every accepted connection. Must outlive the server.
  fault::FaultInjector* fault = nullptr;
};

class RecognizerServer {
 public:
  /// Binds and listens immediately (throws std::runtime_error on any
  /// socket failure) but serves nothing until start() or run_once().
  RecognizerServer(serve::ShardedEngine& engine, ServerConfig config = {});
  ~RecognizerServer();

  RecognizerServer(const RecognizerServer&) = delete;
  RecognizerServer& operator=(const RecognizerServer&) = delete;

  /// The bound port (resolves port 0 to the kernel's pick).
  [[nodiscard]] std::uint16_t port() const { return port_; }
  /// The metrics listener's bound port (0 when no telemetry was wired).
  [[nodiscard]] std::uint16_t metrics_port() const { return metrics_port_; }

  /// Spawns the event-loop thread (and the event notifier thread when
  /// drive_recognizer is false). Idempotent.
  void start();
  /// Stops and joins the threads; open connections stay registered and
  /// are served again if start() is called anew. Idempotent.
  void stop();

  /// One event-loop iteration: wait up to `timeout` for socket/eventfd
  /// activity, service it, drive the engine (drive mode), fan events
  /// out, retry parked operations, reap dead connections. Returns the
  /// number of epoll events serviced. Only valid while no background
  /// thread runs.
  std::size_t run_once(std::chrono::milliseconds timeout);

  [[nodiscard]] std::size_t connection_count() const {
    return live_connections_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t accepted_total() const {
    return accepted_total_.load(std::memory_order_relaxed);
  }

 private:
  void accept_ready();
  void service(int fd, std::uint32_t events);
  /// Post-socket-work phase: drive, fan out events, retry, flush, reap.
  void pump();
  /// Expires idle / write-stalled connections against the config timers
  /// (no-op when both are 0); reap() then collects them.
  void expire_connections();
  /// Milliseconds until the earliest connection deadline, clamped to
  /// `budget` — run_once's epoll wait must not sleep past a deadline.
  [[nodiscard]] int deadline_capped_wait_ms(int budget) const;
  void reap();
  void wake();
  void publish_connection_count();

  // ---- metrics endpoint (second listen port, same epoll loop) ----
  /// A scrape connection: tiny HTTP/1.0 request in, one rendered
  /// response out, close. Kept separate from Connection — it speaks
  /// HTTP, owns no recognizer stream, and never backpressures anything.
  struct HttpClient {
    std::string in;
    std::string out;
    std::size_t out_pos = 0;
    bool responded = false;
    bool dead = false;
  };
  void accept_metrics_ready();
  void service_http(int fd, std::uint32_t events);
  void respond_http(HttpClient& client);
  void flush_http(int fd, HttpClient& client);

  serve::ShardedEngine& engine_;
  ServerConfig config_;
  int listen_fd_ = -1;
  int metrics_listen_fd_ = -1;  // -1 when no telemetry was wired
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd: stop requests + event-notifier ticks
  std::uint16_t port_ = 0;
  std::uint16_t metrics_port_ = 0;

  struct Entry {
    std::unique_ptr<Connection> conn;
    bool mapped = false;              // handle registered in by_handle_
    std::uint64_t mapped_handle = 0;  // key into by_handle_ when mapped
  };
  std::unordered_map<int, Entry> connections_;           // by fd
  std::unordered_map<int, HttpClient> http_clients_;     // by fd
  std::unordered_map<std::uint64_t, Connection*> by_handle_;
  std::vector<serve::RecognizerEvent> event_scratch_;
  std::vector<int> reap_scratch_;

  std::atomic<bool> running_{false};
  std::thread loop_thread_;
  std::thread notifier_thread_;
  std::atomic<std::size_t> live_connections_{0};
  std::atomic<std::uint64_t> accepted_total_{0};
};

}  // namespace rtmobile::net
