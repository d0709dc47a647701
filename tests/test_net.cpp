// Tests for the TCP serving front: the wire codec (round trips, garbled
// input, fragmentation), and the epoll server end-to-end over loopback.
//
// The load-bearing guarantee: events read off the wire are bit-identical
// to the events a direct ShardedEngine::poll_events client sees for the
// same audio — the transport adds delivery, never interpretation.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "compiler/gru_executor.hpp"
#include "net/recognizer_server.hpp"
#include "net/wire_client.hpp"
#include "net/wire_protocol.hpp"
#include "obs/telemetry.hpp"
#include "rnn/model.hpp"
#include "rnn/param_set.hpp"
#include "runtime/clock.hpp"
#include "serve/sharded_engine.hpp"
#include "sparse/block_mask.hpp"
#include "tensor/ops.hpp"
#include "train/projection.hpp"
#include "util/rng.hpp"

namespace rtmobile {
namespace {

using net::Frame;
using net::FrameDecoder;
using net::FrameType;
using net::OpenRequest;
using net::RecognizerServer;
using net::ServerConfig;
using net::ServerMessage;
using net::WireClient;
using net::WireError;
using serve::ShardedEngine;
using serve::StreamConfig;
using serve::StreamHandle;
using speech::StreamEvent;
using speech::StreamEventKind;

// ---------------------------------------------------------- wire codec

TEST(WireProtocol, OpenRoundTrip) {
  OpenRequest request;
  request.decode_mode = static_cast<std::uint8_t>(speech::DecodeMode::kViterbi);
  request.smooth_window = 5;
  request.min_run = 3;
  request.switch_penalty = 2.5;
  request.deadline_budget_seconds = 0.25;
  request.session_key = 0xDEADBEEFCAFEF00DULL;

  std::vector<std::uint8_t> bytes;
  net::append_open(bytes, request);
  FrameDecoder decoder;
  decoder.feed(bytes);
  Frame frame;
  ASSERT_TRUE(decoder.next(frame));
  EXPECT_EQ(frame.type, FrameType::kOpen);
  OpenRequest decoded;
  ASSERT_TRUE(net::decode_open(frame.payload, decoded));
  EXPECT_EQ(decoded.decode_mode, request.decode_mode);
  EXPECT_EQ(decoded.smooth_window, request.smooth_window);
  EXPECT_EQ(decoded.min_run, request.min_run);
  EXPECT_EQ(decoded.switch_penalty, request.switch_penalty);
  EXPECT_EQ(decoded.deadline_budget_seconds,
            request.deadline_budget_seconds);
  EXPECT_EQ(decoded.session_key, request.session_key);
  EXPECT_FALSE(decoder.next(frame));  // exactly one frame
}

TEST(WireProtocol, AudioRoundTripPreservesBits) {
  std::vector<float> samples{0.0F, -1.5F, 3.25e-7F, 1e30F, -0.0F};
  std::vector<std::uint8_t> bytes;
  net::append_audio(bytes, samples);
  FrameDecoder decoder;
  decoder.feed(bytes);
  Frame frame;
  ASSERT_TRUE(decoder.next(frame));
  EXPECT_EQ(frame.type, FrameType::kAudio);
  std::vector<float> decoded;
  ASSERT_TRUE(net::decode_audio(frame.payload, decoded));
  ASSERT_EQ(decoded.size(), samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    // Bit comparison, not value: -0.0 and NaN payloads must survive.
    std::uint32_t a = 0;
    std::uint32_t b = 0;
    std::memcpy(&a, &samples[i], 4);
    std::memcpy(&b, &decoded[i], 4);
    EXPECT_EQ(a, b) << "sample " << i;
  }
}

TEST(WireProtocol, EventRoundTripBitIdentical) {
  StreamEvent event;
  event.kind = StreamEventKind::kDegraded;
  event.frames = 12345678901ULL;
  event.dropped_frames = 17;
  event.stable = {1, 2, 65535, 0};
  event.partial = {9, 9, 9};
  event.is_final = false;

  std::vector<std::uint8_t> bytes;
  net::append_event(bytes, event);
  FrameDecoder decoder;
  decoder.feed(bytes);
  Frame frame;
  ASSERT_TRUE(decoder.next(frame));
  EXPECT_EQ(frame.type, FrameType::kDegraded);
  StreamEvent decoded;
  ASSERT_TRUE(net::decode_event(frame.payload, decoded));
  EXPECT_EQ(decoded, event);

  // Frame type tracks the event: final hypotheses and rejections map to
  // their own types so thin clients dispatch without payload parsing.
  event.kind = StreamEventKind::kHypothesis;
  event.is_final = true;
  bytes.clear();
  net::append_event(bytes, event);
  decoder.feed(bytes);
  ASSERT_TRUE(decoder.next(frame));
  EXPECT_EQ(frame.type, FrameType::kFinal);
  ASSERT_TRUE(net::decode_event(frame.payload, decoded));
  EXPECT_EQ(decoded, event);
}

TEST(WireProtocol, ErrorRoundTrip) {
  std::vector<std::uint8_t> bytes;
  net::append_error(bytes, WireError::kRejectedOverBudget, "too slow");
  FrameDecoder decoder;
  decoder.feed(bytes);
  Frame frame;
  ASSERT_TRUE(decoder.next(frame));
  EXPECT_EQ(frame.type, FrameType::kError);
  WireError error{};
  std::string message;
  ASSERT_TRUE(net::decode_error(frame.payload, error, message));
  EXPECT_EQ(error, WireError::kRejectedOverBudget);
  EXPECT_EQ(message, "too slow");
}

TEST(WireProtocol, DecoderHandlesArbitraryFragmentation) {
  // Several frames of different types, delivered one byte at a time —
  // the worst fragmentation TCP can produce.
  std::vector<std::uint8_t> bytes;
  net::append_open(bytes, OpenRequest{});
  net::append_audio(bytes, std::vector<float>{1.0F, 2.0F});
  net::append_finish(bytes);
  net::append_opened(bytes, 42);
  net::append_close(bytes);

  FrameDecoder decoder;
  std::vector<FrameType> seen;
  Frame frame;
  for (const std::uint8_t byte : bytes) {
    decoder.feed({&byte, 1});
    while (decoder.next(frame)) seen.push_back(frame.type);
  }
  EXPECT_EQ(seen,
            (std::vector<FrameType>{FrameType::kOpen, FrameType::kAudio,
                                    FrameType::kFinish, FrameType::kOpened,
                                    FrameType::kClose}));
  EXPECT_FALSE(decoder.failed());
  EXPECT_EQ(decoder.buffered_bytes(), 0U);
}

TEST(WireProtocol, TruncatedFrameIsNotDelivered) {
  std::vector<std::uint8_t> bytes;
  net::append_audio(bytes, std::vector<float>{1.0F, 2.0F, 3.0F});
  // Feed everything but the last byte: the frame must stay unavailable
  // (and the decoder healthy), then complete with the final byte.
  FrameDecoder decoder;
  decoder.feed({bytes.data(), bytes.size() - 1});
  Frame frame;
  EXPECT_FALSE(decoder.next(frame));
  EXPECT_FALSE(decoder.failed());
  decoder.feed({bytes.data() + bytes.size() - 1, 1});
  EXPECT_TRUE(decoder.next(frame));
}

TEST(WireProtocol, OversizedAndZeroLengthsPoisonTheDecoder) {
  for (const std::uint32_t bad_len : {0U, net::kMaxFrameBytes + 1U}) {
    FrameDecoder decoder;
    std::vector<std::uint8_t> header(4);
    for (int i = 0; i < 4; ++i) {
      header[static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(bad_len >> (8 * i));
    }
    decoder.feed(header);
    Frame frame;
    EXPECT_FALSE(decoder.next(frame));
    EXPECT_TRUE(decoder.failed());
    // Poisoned for good: valid bytes afterwards must not resync.
    std::vector<std::uint8_t> valid;
    net::append_finish(valid);
    decoder.feed(valid);
    EXPECT_FALSE(decoder.next(frame));
  }
}

TEST(WireProtocol, GarbledPayloadsRejectedByEveryParser) {
  // Truncating any valid payload by one byte must fail its parser
  // (never read out of bounds — ASan enforces the "never" part).
  OpenRequest request;
  std::vector<std::uint8_t> bytes;
  net::append_open(bytes, request);
  FrameDecoder decoder;
  decoder.feed(bytes);
  Frame frame;
  ASSERT_TRUE(decoder.next(frame));
  for (std::size_t cut = 0; cut < frame.payload.size(); ++cut) {
    OpenRequest out;
    EXPECT_FALSE(net::decode_open(
        {frame.payload.data(), cut}, out))
        << "cut=" << cut;
  }

  StreamEvent event;
  event.stable = {1, 2, 3};
  event.partial = {4};
  bytes.clear();
  net::append_event(bytes, event);
  decoder.feed(bytes);
  ASSERT_TRUE(decoder.next(frame));
  for (std::size_t cut = 0; cut < frame.payload.size(); ++cut) {
    StreamEvent out;
    EXPECT_FALSE(net::decode_event({frame.payload.data(), cut}, out))
        << "cut=" << cut;
  }

  // Trailing garbage is rejected too (a parser must consume exactly).
  std::vector<std::uint8_t> padded(frame.payload);
  padded.push_back(0);
  StreamEvent out;
  EXPECT_FALSE(net::decode_event(padded, out));

  // Audio payloads must be whole f32s.
  std::vector<std::uint8_t> three_bytes{1, 2, 3};
  std::vector<float> audio;
  EXPECT_FALSE(net::decode_audio(three_bytes, audio));

  // A u16-array count that promises more entries than the payload holds.
  StreamEvent huge;
  bytes.clear();
  net::append_event(bytes, huge);
  decoder.feed(bytes);
  ASSERT_TRUE(decoder.next(frame));
  // stable count lives after kind(1) + final(1) + frames(8) + dropped(8).
  frame.payload[18] = 0xFF;
  frame.payload[19] = 0xFF;
  EXPECT_FALSE(net::decode_event(frame.payload, out));
}

TEST(WireProtocol, RandomBytesNeverCrashTheDecoder) {
  // Deframe random noise: every outcome (frame, starvation, poison) is
  // acceptable; crashing or over-reading is not.
  Rng rng(1234);
  for (int trial = 0; trial < 50; ++trial) {
    FrameDecoder decoder;
    std::vector<std::uint8_t> noise(512);
    for (auto& b : noise) {
      b = static_cast<std::uint8_t>(rng.next_float() * 256.0F);
    }
    // Keep lengths plausible so some frames complete: clamp the first
    // length prefix into range now and then.
    if (trial % 2 == 0) {
      noise[1] = 0;
      noise[2] = 0;
      noise[3] = 0;
    }
    decoder.feed(noise);
    Frame frame;
    while (decoder.next(frame)) {
      OpenRequest open_out;
      std::vector<float> audio_out;
      StreamEvent event_out;
      WireError error_out{};
      std::string message_out;
      std::uint64_t id_out = 0;
      (void)net::decode_open(frame.payload, open_out);
      (void)net::decode_audio(frame.payload, audio_out);
      (void)net::decode_event(frame.payload, event_out);
      (void)net::decode_error(frame.payload, error_out, message_out);
      (void)net::decode_opened(frame.payload, id_out);
    }
  }
}

// ------------------------------------------------------- loopback E2E

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

/// The single-engine deployment: one shard, never started, so the
/// caller (or a drive-mode server loop) steps it.
serve::ShardConfig one_shard(runtime::EngineConfig engine = {}) {
  serve::ShardConfig config;
  config.shards = 1;
  config.engine = engine;
  return config;
}

/// Direct (no-socket) reference: the event sequences a caller-driven
/// client collects for `waves`.
std::vector<std::vector<StreamEvent>> direct_events(
    ShardedEngine& recognizer, const std::vector<std::vector<float>>& waves,
    const StreamConfig& config, std::size_t chunk) {
  std::vector<StreamHandle> handles;
  std::vector<std::vector<StreamEvent>> events(waves.size());
  for (std::size_t s = 0; s < waves.size(); ++s) {
    handles.push_back(recognizer.open_stream(config));
  }
  std::vector<std::size_t> positions(waves.size(), 0);
  bool any = true;
  while (any) {
    any = false;
    for (std::size_t s = 0; s < waves.size(); ++s) {
      if (positions[s] >= waves[s].size()) continue;
      const std::size_t n = std::min(chunk, waves[s].size() - positions[s]);
      EXPECT_TRUE(recognizer.submit_audio(
          handles[s],
          std::span<const float>(waves[s]).subspan(positions[s], n)));
      positions[s] += n;
      if (positions[s] >= waves[s].size()) {
        EXPECT_TRUE(recognizer.finish_stream(handles[s]));
      }
      any = any || positions[s] < waves[s].size();
    }
    recognizer.drain();
    for (std::size_t s = 0; s < waves.size(); ++s) {
      recognizer.poll_events(handles[s], events[s]);
    }
  }
  recognizer.drain();
  for (std::size_t s = 0; s < waves.size(); ++s) {
    recognizer.poll_events(handles[s], events[s]);
    EXPECT_TRUE(recognizer.close_stream(handles[s]));
  }
  return events;
}

/// Interleaved wire clients: all open, chunks round-robin, all finish,
/// then each collects to its final event.
std::vector<std::vector<StreamEvent>> wire_events(
    std::uint16_t port, const std::vector<std::vector<float>>& waves,
    const StreamConfig& config, std::size_t chunk) {
  const OpenRequest request = OpenRequest::from_stream_config(config);
  std::vector<WireClient> clients(waves.size());
  for (auto& client : clients) client.connect("127.0.0.1", port);
  for (auto& client : clients) {
    const std::optional<std::uint64_t> handle = client.open(request);
    EXPECT_TRUE(handle.has_value());
  }
  std::vector<std::size_t> positions(waves.size(), 0);
  bool any = true;
  while (any) {
    any = false;
    for (std::size_t s = 0; s < waves.size(); ++s) {
      if (positions[s] >= waves[s].size()) continue;
      const std::size_t n = std::min(chunk, waves[s].size() - positions[s]);
      clients[s].send_audio(
          std::span<const float>(waves[s]).subspan(positions[s], n));
      positions[s] += n;
      if (positions[s] >= waves[s].size()) clients[s].send_finish();
      any = any || positions[s] < waves[s].size();
    }
  }
  std::vector<std::vector<StreamEvent>> events(waves.size());
  for (std::size_t s = 0; s < waves.size(); ++s) {
    EXPECT_EQ(clients[s].collect_until_final(events[s]), std::nullopt)
        << "stream " << s;
    clients[s].send_close();
  }
  return events;
}

TEST(NetServer, LoopbackEventsBitIdenticalToDirectPoll_OneShard) {
  const ServeFixture f = make_fixture(16, 900);
  std::vector<std::vector<float>> waves;
  for (std::size_t s = 0; s < 3; ++s) {
    waves.push_back(random_waveform(4000 + 800 * s, 40 + s));
  }
  for (const speech::DecodeMode mode :
       {speech::DecodeMode::kGreedy, speech::DecodeMode::kViterbi}) {
    StreamConfig config;
    config.decode.mode = mode;

    ShardedEngine direct(*f.model, f.masks, f.options, one_shard());
    const auto reference = direct_events(direct, waves, config, 1600);

    // Served: never started, so the server loop drives it (drive mode).
    ShardedEngine served(*f.model, f.masks, f.options, one_shard());
    RecognizerServer server(served, ServerConfig{});
    server.start();
    const auto wired = wire_events(server.port(), waves, config, 1600);
    server.stop();

    ASSERT_EQ(wired.size(), reference.size());
    for (std::size_t s = 0; s < waves.size(); ++s) {
      EXPECT_EQ(wired[s], reference[s])
          << "stream " << s << " mode " << to_string(mode);
    }
  }
}

TEST(NetServer, LoopbackEventsBitIdenticalToDirectPoll_Sharded) {
  const ServeFixture f = make_fixture(16, 901);
  std::vector<std::vector<float>> waves;
  for (std::size_t s = 0; s < 4; ++s) {
    waves.push_back(random_waveform(3500 + 600 * s, 70 + s));
  }
  const StreamConfig config;

  serve::ShardConfig direct_config;
  direct_config.shards = 2;
  direct_config.policy = serve::RoutePolicy::kRoundRobin;
  serve::ShardedEngine direct(*f.model, f.masks, f.options, direct_config);
  const auto reference = direct_events(direct, waves, config, 1600);

  // Served: pumps run (started engine), the server loop never drains —
  // the notifier thread wakes it when pump rounds publish events.
  serve::ShardedEngine served(*f.model, f.masks, f.options, direct_config);
  served.start();
  ServerConfig server_config;
  server_config.drive_recognizer = false;
  RecognizerServer server(served, server_config);
  server.start();
  const auto wired = wire_events(server.port(), waves, config, 1600);
  server.stop();
  served.stop();

  ASSERT_EQ(wired.size(), reference.size());
  for (std::size_t s = 0; s < waves.size(); ++s) {
    EXPECT_EQ(wired[s], reference[s]) << "stream " << s;
  }
}

TEST(NetServer, OpenRejectedOverBudgetOnTheWire) {
  // Deterministic overload: a manual clock lets us lag the engine by
  // exactly 1 s, then a deadline-carrying open must be refused with the
  // typed wire error (no handle, no compute).
  const ServeFixture f = make_fixture(16, 902);
  runtime::ManualClock clock;
  runtime::EngineConfig engine_config;
  engine_config.clock = &clock;
  ShardedEngine recognizer(*f.model, f.masks, f.options,
                           one_shard(engine_config));

  // A direct stream with queued-but-unserved audio is what lags: the
  // first round ingests its audio at t = 0 (and serves one frame), the
  // second, 1 s later, publishes the ~1 s wait of the frames still
  // queued — the lag admission control reads.
  const StreamHandle background = recognizer.open_stream();
  ASSERT_TRUE(recognizer.submit_audio(background, random_waveform(4000, 1)));
  ASSERT_GT(recognizer.pump_shard(0), 0U);
  clock.advance_us(1e6);
  ASSERT_GT(recognizer.pump_shard(0), 0U);
  ASSERT_GT(recognizer.shard_lag_seconds(0), 0.5);

  // drive_recognizer = false so hand-driven loop iterations never call
  // drain() — the 1 s lag must persist across the admission check.
  ServerConfig server_config;
  server_config.drive_recognizer = false;
  RecognizerServer server(recognizer, server_config);
  WireClient client;
  client.connect("127.0.0.1", server.port());
  OpenRequest request;
  request.deadline_budget_seconds = 0.5;  // < the 1 s the engine lags
  client.send_open(request);
  // Drive the loop by hand: accept, read, reply. No background thread,
  // so the admission decision happens at a fully determined lag.
  for (int i = 0; i < 50; ++i) {
    server.run_once(std::chrono::milliseconds(1));
  }
  const std::optional<ServerMessage> reply = client.read_message();
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, FrameType::kError);
  EXPECT_EQ(reply->error, WireError::kRejectedOverBudget);

  // A budget above the lag is admitted on the same server.
  WireClient ok_client;
  ok_client.connect("127.0.0.1", server.port());
  OpenRequest ok_request;
  ok_request.deadline_budget_seconds = 5.0;
  ok_client.send_open(ok_request);
  for (int i = 0; i < 50; ++i) {
    server.run_once(std::chrono::milliseconds(1));
  }
  const std::optional<ServerMessage> ok_reply = ok_client.read_message();
  ASSERT_TRUE(ok_reply.has_value());
  EXPECT_EQ(ok_reply->type, FrameType::kOpened);
}

TEST(NetServer, ProtocolViolationsGetTypedErrors) {
  const ServeFixture f = make_fixture(16, 903);
  ShardedEngine recognizer(*f.model, f.masks, f.options, one_shard());
  obs::Telemetry telemetry;
  ServerConfig server_config;
  server_config.telemetry = &telemetry;
  RecognizerServer server(recognizer, server_config);
  server.start();

  {  // audio before open
    WireClient client;
    client.connect("127.0.0.1", server.port());
    client.send_audio(std::vector<float>{0.0F});
    const std::optional<ServerMessage> reply = client.read_message();
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->type, FrameType::kError);
    EXPECT_EQ(reply->error, WireError::kProtocol);
    EXPECT_EQ(client.read_message(), std::nullopt);  // server closed
  }
  {  // duplicate open
    WireClient client;
    client.connect("127.0.0.1", server.port());
    ASSERT_TRUE(client.open(OpenRequest{}).has_value());
    client.send_open(OpenRequest{});
    const std::optional<ServerMessage> reply = client.read_message();
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->type, FrameType::kError);
    EXPECT_EQ(reply->error, WireError::kProtocol);
  }
  {  // finish before open
    WireClient client;
    client.connect("127.0.0.1", server.port());
    client.send_finish();
    const std::optional<ServerMessage> reply = client.read_message();
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->type, FrameType::kError);
    EXPECT_EQ(reply->error, WireError::kProtocol);
  }
  {  // a misbehaving connection doesn't poison its neighbors
    WireClient good;
    good.connect("127.0.0.1", server.port());
    ASSERT_TRUE(good.open(OpenRequest{}).has_value());
    WireClient bad;
    bad.connect("127.0.0.1", server.port());
    bad.send_audio(std::vector<float>{0.0F});  // audio before open
    good.send_audio(random_waveform(3000, 8));
    good.send_finish();
    std::vector<StreamEvent> events;
    EXPECT_EQ(good.collect_until_final(events), std::nullopt);
    ASSERT_FALSE(events.empty());
    EXPECT_TRUE(events.back().is_final);
    // Read the bad client's typed error too — this also synchronizes:
    // the server has definitely processed (and counted) the violation.
    const std::optional<ServerMessage> bad_reply = bad.read_message();
    ASSERT_TRUE(bad_reply.has_value());
    EXPECT_EQ(bad_reply->error, WireError::kProtocol);
  }
  server.stop();
  // Every violation above is visible as a typed-protocol-error count,
  // and every client (five connects) as an accept.
  EXPECT_EQ(telemetry.net().protocol_errors->value(), 4U);
  EXPECT_EQ(telemetry.net().accepted->value(), 5U);
}

TEST(NetServer, IngressBackpressurePausesReadsAndLosesNothing) {
  // A sharded engine with a tiny ingress ring backpressures almost
  // immediately under a flood. The server must park the rejected chunk,
  // pause the connection (TCP pushes back), retry until the pumps catch
  // up — and the stream must still decode exactly right (no loss, no
  // reorder, no duplicate).
  const ServeFixture f = make_fixture(16, 904);
  serve::ShardConfig shard_config;
  shard_config.shards = 1;
  shard_config.queue_capacity = 4;  // rounded to a tiny ring
  serve::ShardedEngine reference(*f.model, f.masks, f.options, shard_config);
  const std::vector<std::vector<float>> waves{random_waveform(8000, 11)};
  const StreamConfig config;
  const auto expected = direct_events(reference, waves, config, 400);

  serve::ShardedEngine served(*f.model, f.masks, f.options, shard_config);
  served.start();
  obs::Telemetry telemetry;
  ServerConfig server_config;
  server_config.drive_recognizer = false;
  server_config.telemetry = &telemetry;
  RecognizerServer server(served, server_config);
  server.start();

  WireClient client;
  client.connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.open(OpenRequest::from_stream_config(config))
                  .has_value());
  // Flood: small chunks maximize ring-full hits.
  std::size_t position = 0;
  while (position < waves[0].size()) {
    const std::size_t n = std::min<std::size_t>(400,
                                                waves[0].size() - position);
    client.send_audio(
        std::span<const float>(waves[0]).subspan(position, n));
    position += n;
  }
  client.send_finish();
  std::vector<StreamEvent> events;
  EXPECT_EQ(client.collect_until_final(events), std::nullopt);
  EXPECT_EQ(events, expected[0]);
  client.send_close();
  server.stop();
  served.stop();
  // The tiny ring must have forced at least one read-pause episode —
  // the previously invisible backpressure event is now countable.
  EXPECT_GE(telemetry.net().ingress_pauses->value(), 1U);
  EXPECT_EQ(telemetry.net().slow_consumer_drops->value(), 0U);
}

TEST(NetServer, SlowConsumerIsDroppedNotBuffered) {
  // A client that writes audio but never reads its events would grow
  // the server's write buffer without bound; the cap drops it instead.
  const ServeFixture f = make_fixture(16, 905);
  ShardedEngine recognizer(*f.model, f.masks, f.options, one_shard());
  obs::Telemetry telemetry;
  ServerConfig server_config;
  server_config.max_write_buffer = 64;  // smaller than any event burst
  server_config.telemetry = &telemetry;
  RecognizerServer server(recognizer, server_config);
  server.start();

  WireClient client;
  client.connect("127.0.0.1", server.port());
  client.send_open(OpenRequest{});
  client.send_audio(random_waveform(16000, 3));
  client.send_finish();
  // Never read. The server must eventually drop us; reads then see the
  // close (possibly after the frames that fit the 64-byte budget).
  std::optional<ServerMessage> message;
  for (;;) {
    try {
      message = client.read_message();
    } catch (const std::exception&) {
      break;  // connection reset also counts as dropped
    }
    if (!message.has_value()) break;  // orderly close
  }
  SUCCEED();
  server.stop();
  EXPECT_EQ(server.connection_count(), 0U);
  // The drop is attributed to the egress cap, not a protocol fault.
  EXPECT_EQ(telemetry.net().slow_consumer_drops->value(), 1U);
  EXPECT_EQ(telemetry.net().protocol_errors->value(), 0U);
  EXPECT_EQ(telemetry.net().closed->value(), 1U);
}

}  // namespace
}  // namespace rtmobile
