// Chaos suite for the fault-tolerant serving stack.
//
// The FaultInjector is deterministic, so every scenario here is a
// replayable schedule, not a flake: a shard pump killed mid-utterance, a
// wedged pump aborted past the park grace, ingress rings lying "full",
// connections reset at the socket, dead clients idling past the server's
// deadline. The load-bearing guarantees under test:
//  - a stream surviving a killed shard produces logits and events
//    bit-identical to an undisturbed run (failover replay), and
//  - no stream ever hangs: it either completes or gets a terminal typed
//    kAborted event — never silence.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "compiler/gru_executor.hpp"
#include "fault/fault_injector.hpp"
#include "net/recognizer_server.hpp"
#include "net/wire_client.hpp"
#include "net/wire_protocol.hpp"
#include "obs/telemetry.hpp"
#include "rnn/model.hpp"
#include "rnn/param_set.hpp"
#include "serve/sharded_engine.hpp"
#include "serve/submission_queue.hpp"
#include "sparse/block_mask.hpp"
#include "train/projection.hpp"
#include "util/rng.hpp"

namespace rtmobile {
namespace {

using fault::FaultInjector;
using fault::FaultSpec;
using fault::Site;
using fault::Trigger;
using serve::ShardConfig;
using serve::ShardedEngine;
using serve::ShardHealth;
using serve::StreamConfig;
using serve::StreamHandle;
using speech::StreamEvent;
using speech::StreamEventKind;

// ------------------------------------------------------------ injector

TEST(FaultInjector, TriggersAreDeterministic) {
  FaultInjector injector;

  FaultSpec nth;
  nth.trigger = Trigger::nth_hit(3);
  injector.arm(Site::kEngineStep, nth);
  std::vector<bool> fired;
  for (int i = 0; i < 6; ++i) {
    fired.push_back(injector.should_fire(Site::kEngineStep));
  }
  EXPECT_EQ(fired, (std::vector<bool>{false, false, true, false, false,
                                      false}));
  EXPECT_EQ(injector.hits(Site::kEngineStep), 6U);
  EXPECT_EQ(injector.fires(Site::kEngineStep), 1U);

  FaultSpec every;
  every.trigger = Trigger::every_k(2);
  injector.arm(Site::kEngineStep, every);  // re-arm resets hit state
  fired.clear();
  for (int i = 0; i < 6; ++i) {
    fired.push_back(injector.should_fire(Site::kEngineStep));
  }
  EXPECT_EQ(fired,
            (std::vector<bool>{false, true, false, true, false, true}));

  FaultSpec once;
  once.trigger = Trigger::one_shot();
  injector.arm(Site::kQueuePush, once);
  EXPECT_TRUE(injector.should_fire(Site::kQueuePush));
  EXPECT_FALSE(injector.should_fire(Site::kQueuePush));
  EXPECT_EQ(injector.total_fires(), injector.fires(Site::kEngineStep) +
                                        injector.fires(Site::kQueuePush));
}

TEST(FaultInjector, KeyFilterTargetsOneVictimDeterministically) {
  // The victim's hit ordinals must not depend on how many non-matching
  // keys interleave — a keyed nth-hit spec is exact.
  FaultInjector injector;
  FaultSpec spec;
  spec.trigger = Trigger::nth_hit(2);
  spec.key = 7;
  injector.arm(Site::kPumpFault, spec);

  EXPECT_FALSE(injector.should_fire(Site::kPumpFault, 3));  // wrong key
  EXPECT_FALSE(injector.should_fire(Site::kPumpFault, 7));  // hit 1
  EXPECT_FALSE(injector.should_fire(Site::kPumpFault, 3));
  EXPECT_FALSE(injector.should_fire(Site::kPumpFault, 3));
  EXPECT_TRUE(injector.should_fire(Site::kPumpFault, 7));  // hit 2 fires
  EXPECT_FALSE(injector.should_fire(Site::kPumpFault, 7));
}

TEST(FaultInjector, SeededRandomScheduleReplaysExactly) {
  auto schedule = [](std::uint64_t seed) {
    FaultInjector injector;
    FaultSpec spec;
    spec.trigger = Trigger::random(0.3, seed);
    injector.arm(Site::kConnRead, spec);
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) {
      fired.push_back(injector.should_fire(Site::kConnRead));
    }
    return fired;
  };
  const std::vector<bool> a = schedule(42);
  EXPECT_EQ(a, schedule(42));   // same seed: identical schedule
  EXPECT_NE(a, schedule(43));   // different seed: different schedule
  std::size_t fires = 0;
  for (const bool f : a) fires += f ? 1 : 0;
  EXPECT_GT(fires, 0U);
  EXPECT_LT(fires, 64U);
}

TEST(FaultInjector, MaxFiresBoundsTheBlastRadius) {
  FaultInjector injector;
  obs::Telemetry telemetry;
  FaultInjector counted(&telemetry);
  FaultSpec spec;
  spec.trigger = Trigger::every_k(1);  // every hit...
  spec.max_fires = 2;                  // ...but only twice
  counted.arm(Site::kConnWrite, spec);
  std::size_t fires = 0;
  for (int i = 0; i < 10; ++i) {
    fires += counted.should_fire(Site::kConnWrite) ? 1 : 0;
  }
  EXPECT_EQ(fires, 2U);
  EXPECT_EQ(telemetry.fault().injected->value(), 2U);
}

// ----------------------------------------------------- serve fixtures

std::vector<float> random_waveform(std::size_t samples, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> wave(samples);
  for (float& s : wave) s = 0.1F * rng.normal();
  return wave;
}

struct ServeFixture {
  std::unique_ptr<SpeechModel> model;
  std::map<std::string, BlockMask> masks;
  CompilerOptions options;
};

ServeFixture make_fixture(std::size_t hidden, std::uint64_t seed) {
  ServeFixture f;
  Rng rng(seed);
  f.model = std::make_unique<SpeechModel>(ModelConfig::scaled(hidden));
  f.model->init(rng);
  ParamSet params;
  f.model->register_params(params);
  for (const std::string& name : f.model->weight_names()) {
    Matrix& w = params.matrix(name);
    BlockMask mask = block_column_mask(w, 4, 4, 0.5);
    mask.apply(w);
    f.masks.emplace(name, std::move(mask));
  }
  f.options.format = SparseFormat::kBspc;
  return f;
}

/// Undisturbed reference run (synchronous pumping): per-stream logits
/// and full event sequences for `waves`.
struct ReferenceRun {
  std::vector<Matrix> logits;
  std::vector<std::vector<StreamEvent>> events;
};

ReferenceRun reference_run(const ServeFixture& f,
                           const std::vector<std::vector<float>>& waves) {
  ShardConfig config;
  config.shards = 1;
  ShardedEngine engine(*f.model, f.masks, f.options, config);
  std::vector<StreamHandle> handles;
  for (std::size_t s = 0; s < waves.size(); ++s) {
    handles.push_back(engine.open_stream(StreamConfig{}));
  }
  for (std::size_t s = 0; s < waves.size(); ++s) {
    EXPECT_TRUE(engine.submit_audio(handles[s], waves[s]));
    EXPECT_TRUE(engine.finish_stream(handles[s]));
  }
  engine.drain();
  ReferenceRun ref;
  ref.logits.resize(waves.size());
  ref.events.resize(waves.size());
  for (std::size_t s = 0; s < waves.size(); ++s) {
    EXPECT_TRUE(engine.stream_done(handles[s]));
    ref.logits[s] = engine.stream_logits(handles[s]);
    engine.poll_events(handles[s], ref.events[s]);
  }
  return ref;
}

bool wait_for(const std::function<bool()>& predicate,
              std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return predicate();
}

// ------------------------------------------------- chaos: shard death

TEST(ShardSupervision, KilledShardFailsOverAndReplaysBitIdentical) {
  // Kill one pump mid-utterance with an injected fault. The supervisor
  // must quarantine the shard, migrate its live streams onto the healthy
  // sibling, and the re-served streams must finish with logits AND event
  // sequences bit-identical to an undisturbed run — the replay guarantee.
  constexpr std::size_t kStreams = 4;
  const ServeFixture f = make_fixture(16, 1001);
  std::vector<std::vector<float>> waves;
  for (std::size_t s = 0; s < kStreams; ++s) {
    waves.push_back(random_waveform(5000 + 700 * s, 500 + s));
  }
  const ReferenceRun ref = reference_run(f, waves);

  obs::Telemetry telemetry;
  FaultInjector injector(&telemetry);
  ShardConfig config;
  config.shards = 2;
  config.policy = serve::RoutePolicy::kRoundRobin;
  config.engine.fault = &injector;
  config.engine.telemetry = &telemetry;
  config.supervisor.enabled = true;
  config.supervisor.check_interval = std::chrono::milliseconds(1);
  ShardedEngine engine(*f.model, f.masks, f.options, config);

  std::vector<StreamHandle> handles;
  for (std::size_t s = 0; s < kStreams; ++s) {
    handles.push_back(engine.open_stream(StreamConfig{}));
  }
  const std::size_t victim = engine.stream_shard(handles[0]);

  // The 6th pump round on the victim shard throws: far enough in that
  // streams have state to replay, early enough that none is done.
  FaultSpec death;
  death.trigger = Trigger::nth_hit(6);
  death.key = victim;
  injector.arm(Site::kPumpFault, death);

  engine.start();
  std::vector<std::thread> producers;
  for (std::size_t s = 0; s < kStreams; ++s) {
    producers.emplace_back([&engine, &waves, &handles, s] {
      const std::vector<float>& wave = waves[s];
      for (std::size_t pos = 0; pos < wave.size(); pos += 800) {
        const std::size_t n = std::min<std::size_t>(800, wave.size() - pos);
        while (!engine.submit_audio(
            handles[s], std::span<const float>(wave).subspan(pos, n))) {
          std::this_thread::yield();  // victim dying reads as backpressure
        }
      }
      while (!engine.finish_stream(handles[s])) std::this_thread::yield();
    });
  }
  for (std::thread& t : producers) t.join();
  // Every stream must complete — zero streams hanging is the contract.
  for (std::size_t s = 0; s < kStreams; ++s) {
    ASSERT_TRUE(wait_for([&] { return engine.stream_done(handles[s]); },
                         std::chrono::seconds(30)))
        << "stream " << s << " hung after shard failure";
  }
  engine.stop();  // must NOT rethrow: the failure was handled (failed over)

  EXPECT_EQ(engine.shard_health(victim), ShardHealth::kFailed);
  for (std::size_t s = 0; s < kStreams; ++s) {
    EXPECT_NE(engine.stream_shard(handles[s]), victim) << "stream " << s;
    EXPECT_EQ(engine.stream_logits(handles[s]), ref.logits[s])
        << "stream " << s;  // bitwise
    std::vector<StreamEvent> events;
    engine.poll_events(handles[s], events);
    EXPECT_EQ(events, ref.events[s]) << "stream " << s;
    ASSERT_FALSE(events.empty());
    EXPECT_TRUE(events.back().is_final);
  }

  EXPECT_EQ(telemetry.fault().injected->value(), 1U);
  EXPECT_GE(telemetry.fault().detected->value(), 1U);
  EXPECT_EQ(telemetry.fault().failovers->value(), 1U);
  EXPECT_GE(telemetry.fault().replayed_streams->value(), 1U);
  EXPECT_EQ(telemetry.fault().aborted_streams->value(), 0U);
}

TEST(ShardSupervision, FailedShardCanRejoinAfterProbe) {
  // Synchronous mode: fail a shard over directly, verify it is out of
  // rotation, then rejoin it — the health probe must pass on the intact
  // engine and new streams must land there again.
  const ServeFixture f = make_fixture(16, 1002);
  obs::Telemetry telemetry;
  ShardConfig config;
  config.shards = 2;
  config.policy = serve::RoutePolicy::kRoundRobin;
  config.engine.telemetry = &telemetry;
  config.supervisor.enabled = true;
  ShardedEngine engine(*f.model, f.masks, f.options, config);

  const std::vector<float> wave = random_waveform(6000, 17);
  const StreamHandle h = engine.open_stream(StreamConfig{});
  const std::size_t home = engine.stream_shard(h);
  ASSERT_TRUE(engine.submit_audio(
      h, std::span<const float>(wave).subspan(0, wave.size() / 2)));
  engine.drain();

  EXPECT_EQ(engine.fail_over_shard(home), 1U);
  EXPECT_EQ(engine.shard_health(home), ShardHealth::kFailed);
  const std::size_t away = engine.stream_shard(h);
  EXPECT_NE(away, home);
  // Out of rotation: new streams avoid the failed shard.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(engine.stream_shard(engine.open_stream(StreamConfig{})), away);
  }
  // The migrated stream still finishes bit-identically.
  ASSERT_TRUE(engine.submit_audio(
      h, std::span<const float>(wave).subspan(wave.size() / 2)));
  ASSERT_TRUE(engine.finish_stream(h));
  engine.drain();
  ASSERT_TRUE(engine.stream_done(h));
  EXPECT_EQ(engine.stream_logits(h),
            reference_run(f, {wave}).logits[0]);  // bitwise

  ASSERT_TRUE(engine.rejoin_shard(home));
  EXPECT_EQ(engine.shard_health(home), ShardHealth::kHealthy);
  bool home_used = false;
  for (int i = 0; i < 4; ++i) {
    home_used = home_used ||
                engine.stream_shard(engine.open_stream(StreamConfig{})) ==
                    home;
  }
  EXPECT_TRUE(home_used);
}

TEST(ShardSupervision, WedgedPumpStreamsGetTerminalAbortNotSilence) {
  // A pump that stalls past the park grace cannot be seized state-clean;
  // its streams must get a terminal typed kAborted event — the client
  // always hears *something* — and the shard is marked kLost.
  const ServeFixture f = make_fixture(16, 1003);
  obs::Telemetry telemetry;
  FaultInjector injector(&telemetry);
  ShardConfig config;
  config.shards = 2;
  config.policy = serve::RoutePolicy::kRoundRobin;
  config.engine.fault = &injector;
  config.engine.telemetry = &telemetry;
  config.supervisor.enabled = true;
  config.supervisor.check_interval = std::chrono::milliseconds(1);
  config.supervisor.stall_timeout = std::chrono::milliseconds(20);
  config.supervisor.park_grace = std::chrono::milliseconds(30);
  ShardedEngine engine(*f.model, f.masks, f.options, config);

  const StreamHandle doomed = engine.open_stream(StreamConfig{});
  const StreamHandle healthy = engine.open_stream(StreamConfig{});
  const std::size_t victim = engine.stream_shard(doomed);
  ASSERT_NE(victim, engine.stream_shard(healthy));
  const std::vector<float> wave = random_waveform(5000, 23);

  engine.start();
  ASSERT_TRUE(wait_for(
      [&] {
        return engine.submit_audio(
            doomed, std::span<const float>(wave).subspan(0, 2000));
      },
      std::chrono::seconds(5)));

  // Wedge the victim pump for far longer than stall_timeout + park_grace.
  FaultSpec wedge;
  wedge.trigger = Trigger::one_shot();
  wedge.key = victim;
  wedge.stall = std::chrono::milliseconds(400);
  injector.arm(Site::kPumpStall, wedge);

  ASSERT_TRUE(wait_for(
      [&] { return engine.shard_health(victim) == ShardHealth::kLost; },
      std::chrono::seconds(10)));

  // The doomed stream terminated with a typed abort, never silence.
  ASSERT_TRUE(
      wait_for([&] { return engine.stream_done(doomed); },
               std::chrono::seconds(5)));
  std::vector<StreamEvent> events;
  engine.poll_events(doomed, events);
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.back().kind, StreamEventKind::kAborted);
  EXPECT_TRUE(events.back().is_final);

  // The sibling shard keeps serving through the whole episode.
  std::size_t pos = 0;
  while (pos < wave.size()) {
    const std::size_t n = std::min<std::size_t>(1000, wave.size() - pos);
    ASSERT_TRUE(wait_for(
        [&] {
          return engine.submit_audio(
              healthy, std::span<const float>(wave).subspan(pos, n));
        },
        std::chrono::seconds(5)));
    pos += n;
  }
  ASSERT_TRUE(wait_for([&] { return engine.finish_stream(healthy); },
                       std::chrono::seconds(5)));
  ASSERT_TRUE(wait_for([&] { return engine.stream_done(healthy); },
                       std::chrono::seconds(30)));
  engine.stop();  // wedged-pump abort was handled: no rethrow

  EXPECT_EQ(engine.stream_logits(healthy),
            reference_run(f, {wave}).logits[0]);  // bitwise
  EXPECT_GE(telemetry.fault().detected->value(), 1U);
  EXPECT_GE(telemetry.fault().aborted_streams->value(), 1U);
}

TEST(ShardSupervision, InjectedRingFullSurfacesAsBackpressure) {
  // kQueuePush makes the ingress ring lie "full" deterministically: the
  // producer sees ordinary backpressure, never an error.
  const ServeFixture f = make_fixture(16, 1004);
  FaultInjector injector;
  ShardConfig config;
  config.shards = 1;
  config.engine.fault = &injector;
  ShardedEngine engine(*f.model, f.masks, f.options, config);
  const StreamHandle h = engine.open_stream(StreamConfig{});
  const std::vector<float> wave = random_waveform(3000, 31);

  FaultSpec full;
  full.trigger = Trigger::one_shot();
  injector.arm(Site::kQueuePush, full);
  EXPECT_FALSE(engine.submit_audio(h, wave));  // injected "ring full"
  EXPECT_TRUE(engine.submit_audio(h, wave));   // retry lands
  EXPECT_TRUE(engine.finish_stream(h));
  engine.drain();
  EXPECT_TRUE(engine.stream_done(h));
  EXPECT_EQ(injector.fires(Site::kQueuePush), 1U);
}

// ----------------------------------- drain_shard vs. live submitters

TEST(ShardMigration, DrainRacingLiveSubmittersLosesNothing) {
  // drain_shard runs while producer threads keep submitting to the very
  // streams being migrated. The route latch must keep every stream's
  // command order exact across the re-route: final logits and event
  // sequences bit-identical to an undisturbed run, no lost or duplicated
  // command.
  constexpr std::size_t kStreams = 4;
  const ServeFixture f = make_fixture(16, 1005);
  std::vector<std::vector<float>> waves;
  for (std::size_t s = 0; s < kStreams; ++s) {
    waves.push_back(random_waveform(6000 + 500 * s, 600 + s));
  }
  const ReferenceRun ref = reference_run(f, waves);

  ShardConfig config;
  config.shards = 2;
  config.policy = serve::RoutePolicy::kRoundRobin;
  config.queue_capacity = 16;  // small ring: drains interleave with pushes
  ShardedEngine engine(*f.model, f.masks, f.options, config);

  std::vector<StreamHandle> handles;
  for (std::size_t s = 0; s < kStreams; ++s) {
    handles.push_back(engine.open_stream(StreamConfig{}));
  }

  // Producers push audio continuously — racing the pumps AND the drain —
  // but hold their finish until the drain has happened, so every stream
  // is guaranteed live (and therefore migrated) when drain_shard runs,
  // regardless of how fast this machine serves.
  std::atomic<bool> done{false};
  std::atomic<std::size_t> pushed{0};
  std::atomic<bool> drained{false};
  std::vector<std::thread> producers;
  for (std::size_t s = 0; s < kStreams; ++s) {
    producers.emplace_back([&engine, &waves, &handles, &pushed, &drained,
                            s] {
      const std::vector<float>& wave = waves[s];
      for (std::size_t pos = 0; pos < wave.size(); pos += 400) {
        const std::size_t n = std::min<std::size_t>(400, wave.size() - pos);
        while (!engine.submit_audio(
            handles[s], std::span<const float>(wave).subspan(pos, n))) {
          std::this_thread::yield();
        }
        pushed.fetch_add(1, std::memory_order_release);
      }
      while (!drained.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      while (!engine.finish_stream(handles[s])) std::this_thread::yield();
    });
  }
  // The pumper drains shard 0 once every stream has audio in flight but
  // none can possibly be finished, then keeps pumping to the end.
  std::thread pumper([&engine, &done, &pushed, &drained] {
    while (!done.load(std::memory_order_acquire)) {
      for (std::size_t shard = 0; shard < 2; ++shard) {
        engine.pump_shard(shard);
      }
      if (!drained.load(std::memory_order_relaxed) &&
          pushed.load(std::memory_order_acquire) >= 2 * kStreams) {
        engine.drain_shard(0);
        drained.store(true, std::memory_order_release);
      }
    }
  });
  for (std::thread& t : producers) t.join();
  done.store(true, std::memory_order_release);
  pumper.join();
  engine.drain();

  for (std::size_t s = 0; s < kStreams; ++s) {
    ASSERT_TRUE(engine.stream_done(handles[s])) << "stream " << s;
    EXPECT_EQ(engine.stream_shard(handles[s]), 1U) << "stream " << s;
    EXPECT_EQ(engine.stream_logits(handles[s]), ref.logits[s])
        << "stream " << s;  // bitwise
    std::vector<StreamEvent> events;
    engine.poll_events(handles[s], events);
    EXPECT_EQ(events, ref.events[s]) << "stream " << s;
  }
}

// --------------------------------------------- net front self-defense

/// The single-engine deployment a drive-mode server steps: one shard,
/// never started.
ShardConfig one_shard() {
  ShardConfig config;
  config.shards = 1;
  return config;
}

/// Raw HTTP/1.0 GET against the metrics port; returns the whole response.
std::string http_get(std::uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  EXPECT_EQ(::send(fd, request.data(), request.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    response.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(NetFault, IdleConnectionsAreReapedWithTypedTimeout) {
  // A client that connects and then goes silent is reaped at the idle
  // deadline with a typed kTimeout error, the reap is counted into
  // rt_fault_reaped_connections_total, and the count is scrapeable over
  // the live /metrics endpoint — the whole loop, end to end over TCP.
  const ServeFixture f = make_fixture(16, 1006);
  ShardedEngine recognizer(*f.model, f.masks, f.options, one_shard());
  obs::Telemetry telemetry;
  net::ServerConfig server_config;
  server_config.telemetry = &telemetry;
  server_config.idle_timeout = std::chrono::milliseconds(60);
  net::RecognizerServer server(recognizer, server_config);
  server.start();

  net::WireClient idle_client;
  idle_client.connect("127.0.0.1", server.port());
  // Send nothing. The server must push a typed timeout and close.
  const std::optional<net::ServerMessage> reply = idle_client.read_message();
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, net::FrameType::kError);
  EXPECT_EQ(reply->error, net::WireError::kTimeout);
  EXPECT_EQ(idle_client.read_message(), std::nullopt);  // closed

  ASSERT_TRUE(wait_for([&] { return server.connection_count() == 0; },
                       std::chrono::seconds(5)));
  EXPECT_EQ(telemetry.fault().reaped_connections->value(), 1U);
  const std::string scrape = http_get(server.metrics_port(), "/metrics");
  EXPECT_NE(scrape.find("rt_fault_reaped_connections_total 1"),
            std::string::npos)
      << scrape;

  // An active client on the same server is NOT reaped: activity renews
  // the deadline for as long as the stream makes progress.
  net::WireClient active;
  active.connect("127.0.0.1", server.port());
  ASSERT_TRUE(active.open(net::OpenRequest{}).has_value());
  active.send_audio(random_waveform(8000, 9));
  active.send_finish();
  std::vector<StreamEvent> events;
  EXPECT_EQ(active.collect_until_final(events), std::nullopt);
  ASSERT_FALSE(events.empty());
  EXPECT_TRUE(events.back().is_final);
  server.stop();
}

TEST(NetFault, InjectedPeerResetDropsOnlyTheVictimConnection) {
  const ServeFixture f = make_fixture(16, 1007);
  ShardedEngine recognizer(*f.model, f.masks, f.options, one_shard());
  obs::Telemetry telemetry;
  FaultInjector injector(&telemetry);
  net::ServerConfig server_config;
  server_config.telemetry = &telemetry;
  server_config.fault = &injector;
  net::RecognizerServer server(recognizer, server_config);
  server.start();

  // Every read on any connection acts as a peer reset while armed.
  FaultSpec reset;
  reset.trigger = Trigger::every_k(1);
  injector.arm(Site::kConnRead, reset);
  net::WireClient victim;
  victim.connect("127.0.0.1", server.port());
  victim.send_open(net::OpenRequest{});
  // The server never reads the open; it reaps the "reset" connection.
  // Unread bytes in the server's receive buffer make the close an RST,
  // so the client may see either an orderly close or a socket error.
  bool dropped = false;
  try {
    dropped = !victim.read_message().has_value();
  } catch (const std::exception&) {
    dropped = true;
  }
  EXPECT_TRUE(dropped);
  injector.disarm(Site::kConnRead);
  EXPECT_GE(injector.fires(Site::kConnRead), 1U);

  // With the site disarmed, service is completely normal again.
  net::WireClient survivor;
  survivor.connect("127.0.0.1", server.port());
  ASSERT_TRUE(survivor.open(net::OpenRequest{}).has_value());
  survivor.send_audio(random_waveform(4000, 12));
  survivor.send_finish();
  std::vector<StreamEvent> events;
  EXPECT_EQ(survivor.collect_until_final(events), std::nullopt);
  server.stop();
}

TEST(NetFault, WritingToPeerClosedSocketDoesNotKillTheServer) {
  // SIGPIPE regression: a client that submits a whole utterance and
  // vanishes before reading forces the server to write into a socket the
  // peer already closed. The process must survive (MSG_NOSIGNAL +
  // SIG_IGN) and keep serving its other clients.
  const ServeFixture f = make_fixture(16, 1008);
  ShardedEngine recognizer(*f.model, f.masks, f.options, one_shard());
  net::RecognizerServer server(recognizer, net::ServerConfig{});
  server.start();

  {
    net::WireClient ghost;
    ghost.connect("127.0.0.1", server.port());
    ASSERT_TRUE(ghost.open(net::OpenRequest{}).has_value());
    ghost.send_audio(random_waveform(8000, 5));
    ghost.send_finish();
    ghost.disconnect();  // gone before a single event is read
  }
  // The server computes the ghost's events and tries to deliver them
  // into the closed socket; the connection must simply be reaped.
  ASSERT_TRUE(wait_for([&] { return server.connection_count() == 0; },
                       std::chrono::seconds(10)));

  net::WireClient alive;
  alive.connect("127.0.0.1", server.port());
  ASSERT_TRUE(alive.open(net::OpenRequest{}).has_value());
  alive.send_audio(random_waveform(4000, 6));
  alive.send_finish();
  std::vector<StreamEvent> events;
  EXPECT_EQ(alive.collect_until_final(events), std::nullopt);
  ASSERT_FALSE(events.empty());
  EXPECT_TRUE(events.back().is_final);
  server.stop();
}

TEST(NetFault, AbsurdDeclaredFrameLengthGetsTypedRefusal) {
  // A 0xFFFFFFFF length header must poison the decoder with the typed
  // kFrameTooLarge failure locally, and over the wire the server must
  // answer with the same typed error instead of buffering 4 GiB.
  net::FrameDecoder decoder;
  decoder.set_max_frame_bytes(1024);
  EXPECT_EQ(decoder.max_frame_bytes(), 1024U);
  const std::array<std::uint8_t, 8> absurd = {0xFF, 0xFF, 0xFF, 0xFF,
                                              0x01, 0x02, 0x03, 0x04};
  decoder.feed(absurd);
  net::Frame frame;
  EXPECT_FALSE(decoder.next(frame));
  EXPECT_TRUE(decoder.failed());
  EXPECT_EQ(decoder.failure(), net::WireError::kFrameTooLarge);

  // Just over the configured cap is refused the same way…
  net::FrameDecoder capped;
  capped.set_max_frame_bytes(1024);
  const std::uint32_t over = 1025;
  std::vector<std::uint8_t> header(4);
  for (int i = 0; i < 4; ++i) {
    header[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(over >> (8 * i));
  }
  capped.feed(header);
  EXPECT_FALSE(capped.next(frame));
  EXPECT_EQ(capped.failure(), net::WireError::kFrameTooLarge);
  // …while a zero length is a framing (protocol) failure, not a size one.
  net::FrameDecoder zeroed;
  zeroed.feed(std::vector<std::uint8_t>(4, 0));
  EXPECT_FALSE(zeroed.next(frame));
  EXPECT_TRUE(zeroed.failed());
  EXPECT_EQ(zeroed.failure(), net::WireError::kProtocol);

  const ServeFixture f = make_fixture(16, 1009);
  ShardedEngine recognizer(*f.model, f.masks, f.options, one_shard());
  net::RecognizerServer server(recognizer, net::ServerConfig{});
  server.start();
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  ASSERT_EQ(::send(fd, absurd.data(), absurd.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(absurd.size()));
  // Deframe the server's reply off the raw socket.
  net::FrameDecoder reply_decoder;
  net::Frame reply;
  char chunk[4096];
  bool got_reply = false;
  for (int i = 0; i < 100 && !got_reply; ++i) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    reply_decoder.feed(
        {reinterpret_cast<const std::uint8_t*>(chunk),
         static_cast<std::size_t>(n)});
    got_reply = reply_decoder.next(reply);
  }
  ::close(fd);
  ASSERT_TRUE(got_reply);
  ASSERT_EQ(reply.type, net::FrameType::kError);
  net::WireError error{};
  std::string message;
  ASSERT_TRUE(net::decode_error(reply.payload, error, message));
  EXPECT_EQ(error, net::WireError::kFrameTooLarge);
  server.stop();
}

TEST(NetFault, OpenWithRetryRidesOutTransientRefusals) {
  // open_with_retry must reconnect-and-retry through kBackpressureOverflow
  // refusals (injected at the victim shard's ingress ring) and land the
  // stream once the congestion clears — and must NOT retry a
  // non-transient over-budget refusal.
  const ServeFixture f = make_fixture(16, 1010);
  FaultInjector injector;
  serve::ShardConfig shard_config;
  shard_config.shards = 1;
  shard_config.engine.fault = &injector;
  ShardedEngine engine(*f.model, f.masks, f.options, shard_config);
  engine.start();
  net::ServerConfig server_config;
  server_config.drive_recognizer = false;
  net::RecognizerServer server(engine, server_config);
  server.start();

  // The first two open pushes report "ring full": the server refuses
  // each with kBackpressureOverflow and closes; the third lands.
  FaultSpec congested;
  congested.trigger = Trigger::every_k(1);
  congested.max_fires = 2;
  injector.arm(Site::kQueuePush, congested);

  net::WireClient client;
  client.connect("127.0.0.1", server.port());
  net::OpenRetryPolicy policy;
  policy.initial_backoff = std::chrono::milliseconds(2);
  net::WireError error = net::WireError::kProtocol;
  const std::optional<std::uint64_t> handle =
      client.open_with_retry(net::OpenRequest{}, policy, &error);
  ASSERT_TRUE(handle.has_value()) << "error=" << static_cast<int>(error);
  EXPECT_EQ(injector.fires(Site::kQueuePush), 2U);

  client.send_audio(random_waveform(4000, 14));
  client.send_finish();
  std::vector<StreamEvent> events;
  EXPECT_EQ(client.collect_until_final(events), std::nullopt);
  client.send_close();
  server.stop();
  engine.stop();
}

}  // namespace
}  // namespace rtmobile
