// Simulated sharded recognition service on the serve::ShardedEngine API.
//
// N clients speak synthesized phone sequences. Each client opens a
// stream against a started ShardedEngine — the same stream API a
// one-shard, caller-driven deployment (streaming_server.cpp) serves, so
// the submission loop below is the client code a single-engine
// deployment would run. The router places each stream (round-robin,
// least-loaded, or session-hash), then every client delivers audio in
// 100 ms chunks from its own producer thread through the shard's
// lock-free-ish MPSC ingress — no client ever touches an engine lock.
// One pump thread per shard applies arrivals, steps its replica, and
// flushes each stream's decoder events into its handle's mailbox; a
// consumer thread concurrently drains all
// streams' hypothesis events through the drain-all poll. When all
// clients hang up, the engine stops gracefully, finals (bit-identical
// to batch greedy_decode) print per client, and the per-shard plus
// aggregated fleet stats close the report.
#include <cstdio>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "rnn/model.hpp"
#include "rnn/param_set.hpp"
#include "serve/sharded_engine.hpp"
#include "sparse/block_mask.hpp"
#include "speech/phones.hpp"
#include "speech/synth.hpp"
#include "train/projection.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/string_util.hpp"

namespace rtmobile {
namespace {

/// An untrained but BSP-pruned model: the sharded serving plumbing is
/// what this example demonstrates, not recognition accuracy.
struct Service {
  std::unique_ptr<SpeechModel> model;
  std::map<std::string, BlockMask> masks;
  CompilerOptions options;
};

Service build_service(std::size_t hidden) {
  Service service;
  Rng rng(2024);
  service.model =
      std::make_unique<SpeechModel>(ModelConfig::scaled(hidden));
  service.model->init(rng);

  ParamSet params;
  service.model->register_params(params);
  for (const std::string& name : service.model->weight_names()) {
    Matrix& w = params.matrix(name);
    BlockMask mask = block_column_mask(w, 8, 4, 0.25);
    mask.apply(w);
    service.masks.emplace(name, std::move(mask));
  }
  service.options.format = SparseFormat::kBspc;
  return service;
}

/// A random phone sequence rendered to a 16 kHz waveform.
std::vector<float> client_utterance(std::size_t num_phones, Rng& rng) {
  const std::size_t phone_count = speech::surface_phones().size();
  std::vector<std::size_t> phones(num_phones);
  std::vector<std::size_t> durations(num_phones);
  for (std::size_t i = 0; i < num_phones; ++i) {
    phones[i] = static_cast<std::size_t>(
        rng.uniform(0.0F, static_cast<float>(phone_count) - 0.001F));
    durations[i] =
        static_cast<std::size_t>(rng.uniform(800.0F, 2400.0F));  // 50-150 ms
  }
  speech::Synthesizer synth;
  return synth.render_sequence(phones, durations, rng);
}

std::string phone_string(std::span<const std::uint16_t> ids) {
  std::string out;
  const auto& names = speech::surface_phones();
  for (const std::uint16_t id : ids) {
    if (!out.empty()) out += ' ';
    out += id < names.size() ? names[id].name : "?";
  }
  return out;
}

}  // namespace
}  // namespace rtmobile

int main(int argc, char** argv) {
  using namespace rtmobile;

  CliParser cli;
  cli.add_flag("clients", "6", "number of concurrent client streams");
  cli.add_flag("phones", "12", "phones per client utterance");
  cli.add_flag("hidden", "128", "GRU hidden size of the served model");
  cli.add_flag("shards", "2", "engine replicas");
  cli.add_flag("threads-per-shard", "1", "pool width per shard");
  cli.add_flag("policy", "least-loaded",
               "round-robin | least-loaded | session-hash");
  cli.add_switch("pin", "pin each shard to its disjoint core range");
  try {
    cli.parse(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n%s", e.what(),
                 cli.help("sharded_server").c_str());
    return 1;
  }
  const std::size_t clients =
      static_cast<std::size_t>(cli.get_int("clients"));
  const std::size_t phones = static_cast<std::size_t>(cli.get_int("phones"));
  const std::size_t hidden = static_cast<std::size_t>(cli.get_int("hidden"));

  serve::ShardConfig config;
  config.shards = static_cast<std::size_t>(cli.get_int("shards"));
  config.threads_per_shard =
      static_cast<std::size_t>(cli.get_int("threads-per-shard"));
  config.policy = serve::parse_route_policy(cli.get_string("policy"));
  config.pin_cores = cli.get_switch("pin");

  std::printf(
      "sharded_server: %zu clients over %zu shards (%zu threads each), "
      "policy=%s%s, hidden=%zu\n\n",
      clients, config.shards, config.threads_per_shard,
      to_string(config.policy), config.pin_cores ? ", pinned" : "", hidden);

  const Service service = build_service(hidden);
  serve::ShardedEngine engine(*service.model, service.masks,
                              service.options, config);

  Rng rng(7);
  std::vector<std::vector<float>> audio;
  std::vector<serve::StreamHandle> handles;
  for (std::size_t c = 0; c < clients; ++c) {
    audio.push_back(client_utterance(phones, rng));
    serve::StreamConfig stream;
    stream.session_key = c;  // sticky under the session-hash policy
    handles.push_back(engine.open_stream(stream));
  }

  engine.start();

  // Each client is its own producer thread delivering 100 ms chunks and
  // honoring ingress backpressure — the shape of real packet arrival.
  std::vector<std::thread> producers;
  for (std::size_t c = 0; c < clients; ++c) {
    producers.emplace_back([&engine, &audio, &handles, c] {
      constexpr std::size_t kChunk = 1600;
      const std::vector<float>& wave = audio[c];
      for (std::size_t pos = 0; pos < wave.size(); pos += kChunk) {
        const std::size_t n = std::min(kChunk, wave.size() - pos);
        while (!engine.submit_audio(
            handles[c], std::span<const float>(wave).subspan(pos, n))) {
          std::this_thread::yield();
        }
      }
      while (!engine.finish_stream(handles[c])) std::this_thread::yield();
    });
  }

  // One consumer drains every stream's hypothesis events while the
  // pumps serve — partials flow out mid-utterance, concurrently with
  // submission, through the drain-all poll.
  std::unordered_map<std::uint64_t, std::vector<std::uint16_t>> hypotheses;
  std::unordered_map<std::uint64_t, bool> finals_seen;
  std::size_t partial_updates = 0;
  std::thread consumer([&] {
    std::vector<serve::RecognizerEvent> events;
    std::size_t finals = 0;
    while (finals < clients) {
      events.clear();
      if (engine.poll_events(events) == 0) {
        std::this_thread::yield();
        continue;
      }
      for (const serve::RecognizerEvent& tagged : events) {
        std::vector<std::uint16_t>& hyp = hypotheses[tagged.stream.id];
        hyp.insert(hyp.end(), tagged.event.stable.begin(),
                   tagged.event.stable.end());
        partial_updates += tagged.event.partial.empty() ? 0 : 1;
        if (tagged.event.is_final && !finals_seen[tagged.stream.id]) {
          finals_seen[tagged.stream.id] = true;
          ++finals;
        }
      }
    }
  });

  for (std::thread& t : producers) t.join();
  consumer.join();
  engine.stop();  // graceful: everything submitted has been served

  for (std::size_t c = 0; c < clients; ++c) {
    const Matrix logits = engine.stream_logits(handles[c]);
    std::printf("client %zu (shard %zu): %4zu frames -> %s\n", c,
                engine.stream_shard(handles[c]), logits.rows(),
                phone_string(hypotheses[handles[c].id]).c_str());
    // Results read: release the session so the shard does not hold
    // finished streams forever.
    if (!engine.close_stream(handles[c])) {
      std::fprintf(stderr, "close_stream(%zu) backpressured\n", c);
    }
  }
  std::printf("\n%zu partial-hypothesis updates streamed mid-utterance\n",
              partial_updates);

  std::printf("\nper-shard:\n");
  for (std::size_t s = 0; s < engine.shard_count(); ++s) {
    const runtime::RuntimeStats& stats = engine.shard_stats(s);
    std::printf(
        "  shard %zu: %5zu frames in %4zu steps (mean batch %.1f), "
        "p50 %.1f us, p95 %.1f us, %.0f frames/s\n",
        s, stats.frames_processed, stats.steps, stats.mean_batch(),
        stats.step_latency.p50_us(), stats.step_latency.p95_us(),
        stats.frames_per_second());
  }

  const serve::GlobalStats global = engine.stats();
  std::printf(
      "\nfleet: %zu frames over %zu shards\n"
      "merged step latency p50 %.1f us, p95 %.1f us\n"
      "aggregate capacity %.0f frames/s, wall throughput %.0f frames/s\n"
      "wall real-time factor %.1fx\n",
      global.merged.frames_processed, global.shards,
      global.merged.step_latency.p50_us(),
      global.merged.step_latency.p95_us(), global.aggregate_fps,
      global.wall_fps(), global.wall_real_time_factor());
  return 0;
}
