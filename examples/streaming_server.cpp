// Simulated streaming recognition server on the serve::ShardedEngine API.
//
// N clients speak synthesized phone sequences; their audio arrives in 100 ms
// chunks, interleaved across clients the way packets arrive at a real service.
// The server is a one-shard serve::ShardedEngine that this loop steps itself
// (never started) — the same stream API a started multi-shard fleet serves, so
// this client loop runs unmodified against either. After every arrival round
// the engine drains and hypothesis events are polled: each stream's partial
// hypotheses print as they evolve mid-utterance (stable prefix | unstable
// tail), and the final hypotheses — which are bit-identical to batch
// greedy_decode of the stream's logits — print with the serving stats at the
// end.
#include <cstdio>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "hw/thread_pool.hpp"
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

/// An untrained but BSP-pruned model on a one-shard engine: the serving
/// plumbing is what this example demonstrates, not recognition accuracy.
struct Server {
  std::unique_ptr<SpeechModel> model;
  std::unique_ptr<serve::ShardedEngine> engine;
};

Server build_server(std::size_t hidden, std::size_t threads,
                    std::size_t clients) {
  Server server;
  Rng rng(2024);
  server.model = std::make_unique<SpeechModel>(ModelConfig::scaled(hidden));
  server.model->init(rng);

  std::map<std::string, BlockMask> masks;
  ParamSet params;
  server.model->register_params(params);
  for (const std::string& name : server.model->weight_names()) {
    Matrix& w = params.matrix(name);
    BlockMask mask = block_column_mask(w, 8, 4, 0.25);
    mask.apply(w);
    masks.emplace(name, std::move(mask));
  }

  CompilerOptions options;
  options.format = SparseFormat::kBspc;
  serve::ShardConfig config;
  config.shards = 1;
  config.threads_per_shard = threads;
  // An arrival round queues at most one chunk and one finish per client
  // before the engine drains them.
  config.queue_capacity = 2 * clients;
  server.engine = std::make_unique<serve::ShardedEngine>(*server.model, masks,
                                                         options, config);
  return server;
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
  cli.add_flag("threads", std::to_string(ThreadPool::default_thread_count()),
               "thread pool size");
  cli.add_flag("watch", "0", "client whose partial hypotheses print live");
  try {
    cli.parse(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n%s", e.what(),
                 cli.help("streaming_server").c_str());
    return 1;
  }
  const std::size_t clients =
      static_cast<std::size_t>(cli.get_int("clients"));
  const std::size_t phones = static_cast<std::size_t>(cli.get_int("phones"));
  const std::size_t hidden = static_cast<std::size_t>(cli.get_int("hidden"));
  const std::size_t threads =
      static_cast<std::size_t>(cli.get_int("threads"));
  const std::size_t watch = static_cast<std::size_t>(cli.get_int("watch"));

  std::printf("streaming_server: %zu clients, hidden=%zu, threads=%zu\n\n",
              clients, hidden, threads);
  Server server = build_server(hidden, threads, clients);
  serve::ShardedEngine& recognizer = *server.engine;

  Rng rng(7);
  std::vector<std::vector<float>> audio;
  std::vector<serve::StreamHandle> handles;
  std::vector<std::vector<std::uint16_t>> hypotheses(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    handles.push_back(recognizer.open_stream());  // greedy decode default
    audio.push_back(client_utterance(phones, rng));
  }

  // Interleaved arrival: every round each live client delivers 100 ms,
  // the recognizer serves what is ready, and hypothesis events stream
  // out. The watched client's partials print as they evolve.
  constexpr std::size_t kChunk = 1600;
  std::vector<std::size_t> positions(clients, 0);
  std::vector<speech::StreamEvent> events;
  bool arriving = true;
  while (arriving) {
    arriving = false;
    for (std::size_t c = 0; c < clients; ++c) {
      if (positions[c] >= audio[c].size()) continue;
      const std::size_t n =
          std::min(kChunk, audio[c].size() - positions[c]);
      (void)recognizer.submit_audio(
          handles[c],
          std::span<const float>(audio[c]).subspan(positions[c], n));
      positions[c] += n;
      if (positions[c] >= audio[c].size()) {
        (void)recognizer.finish_stream(handles[c]);
      }
      arriving = arriving || positions[c] < audio[c].size();
    }
    recognizer.drain();  // recognition overlaps with arrival
    for (std::size_t c = 0; c < clients; ++c) {
      events.clear();
      recognizer.poll_events(handles[c], events);
      for (const speech::StreamEvent& event : events) {
        hypotheses[c].insert(hypotheses[c].end(), event.stable.begin(),
                             event.stable.end());
        if (c == watch && (!event.stable.empty() || event.is_final)) {
          std::printf("client %zu @%4zu frames: %s | %s\n", c, event.frames,
                      phone_string(hypotheses[c]).c_str(),
                      phone_string(event.partial).c_str());
        }
      }
    }
  }
  recognizer.drain();

  std::printf("\nfinal hypotheses:\n");
  const speech::MfccConfig& mfcc = recognizer.config().engine.mfcc;
  const double seconds_per_frame =
      static_cast<double>(mfcc.frame_shift) / mfcc.sample_rate_hz;
  for (std::size_t c = 0; c < clients; ++c) {
    events.clear();
    recognizer.poll_events(handles[c], events);
    for (const speech::StreamEvent& event : events) {
      hypotheses[c].insert(hypotheses[c].end(), event.stable.begin(),
                           event.stable.end());
    }
    const Matrix logits = recognizer.stream_logits(handles[c]);
    std::printf("client %zu: %5.2f s audio, %4zu frames -> %s\n", c,
                static_cast<double>(logits.rows()) * seconds_per_frame,
                logits.rows(), phone_string(hypotheses[c]).c_str());
    (void)recognizer.close_stream(handles[c]);
  }

  const serve::GlobalStats stats = recognizer.stats();
  std::printf(
      "\nserved %zu frames in %zu steps (mean batch %.1f)\n"
      "step latency p50 %.1f us, p95 %.1f us\n"
      "aggregate %.0f frames/s, real-time factor %.1fx\n",
      stats.merged.frames_processed, stats.merged.steps,
      stats.merged.mean_batch(), stats.merged.step_latency.p50_us(),
      stats.merged.step_latency.p95_us(), stats.merged.frames_per_second(),
      stats.merged.real_time_factor());
  return 0;
}
