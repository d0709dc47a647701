// Streaming runtime benchmark: aggregate throughput and step latency of
// the batched serving path as concurrent streams scale 1 -> 8, measured
// through the serving API on a one-shard, caller-driven ShardedEngine.
//
// Each configuration serves N independent audio streams through one
// BSP-pruned compiled model. All audio is pushed up front and the
// recognizer drained, so every step batches the maximum number of ready
// streams — the steady-state regime of a loaded server. Each stream
// count runs twice: logits-only (decode off) and with the in-loop
// greedy StreamingDecoder, so the "dec ovh%" column prices streaming
// decode (partial-hypothesis emission) against raw inference. Reported
// per row: frames processed, mean batch size, p50/p95 step latency,
// aggregate frames/sec, the real-time factor (audio seconds per compute
// second, summed over streams), throughput speedup versus the
// single-stream row, decoded frames/sec, and the decode overhead. The
// whole sweep is also emitted as streaming.json (a CI artifact), so the
// cost of in-loop decoding is tracked across runs.
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "compiler/gru_executor.hpp"
#include "hw/thread_pool.hpp"
#include "rnn/model.hpp"
#include "rnn/param_set.hpp"
#include "serve/sharded_engine.hpp"
#include "sparse/block_mask.hpp"
#include "train/projection.hpp"
#include "util/cli.hpp"
#include "util/report.hpp"
#include "util/rng.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

namespace rtmobile {
namespace {

struct BenchSetup {
  std::unique_ptr<SpeechModel> model;
  std::map<std::string, BlockMask> masks;
  CompilerOptions options;
};

BenchSetup build_model(std::size_t hidden, std::size_t threads,
                       double keep_fraction,
                       WeightPrecision precision = WeightPrecision::kFp32) {
  BenchSetup setup;
  Rng rng(1234);
  ModelConfig config = ModelConfig::scaled(hidden);
  setup.model = std::make_unique<SpeechModel>(config);
  setup.model->init(rng);

  ParamSet params;
  setup.model->register_params(params);
  for (const std::string& name : setup.model->weight_names()) {
    Matrix& w = params.matrix(name);
    BlockMask mask = block_column_mask(w, 8, 4, keep_fraction);
    mask.apply(w);
    setup.masks.emplace(name, std::move(mask));
  }

  setup.options.format = SparseFormat::kBspc;
  setup.options.threads = threads;
  setup.options.precision = precision;
  return setup;
}

std::vector<float> make_waveform(double seconds, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> wave(static_cast<std::size_t>(seconds * 16000.0));
  for (float& s : wave) s = 0.1F * rng.normal();
  return wave;
}

/// Serves `streams` identical-length waveforms through a one-shard
/// engine (decode mode per `mode`) and returns its stats.
serve::GlobalStats run_serving(const BenchSetup& setup, std::size_t streams,
                               double seconds, speech::DecodeMode mode) {
  serve::ShardConfig shard_config;
  shard_config.shards = 1;
  shard_config.threads_per_shard = setup.options.threads;
  // Every utterance is queued before the first round: one audio and one
  // finish command per stream.
  shard_config.queue_capacity = 2 * streams;
  serve::ShardedEngine engine(*setup.model, setup.masks, setup.options,
                              shard_config);
  serve::StreamConfig config;
  config.decode.mode = mode;
  for (std::size_t s = 0; s < streams; ++s) {
    const serve::StreamHandle h = engine.open_stream(config);
    const std::vector<float> wave = make_waveform(seconds, 9000 + s);
    (void)engine.submit_audio(h, wave);
    (void)engine.finish_stream(h);
  }
  engine.drain();
  return engine.stats();
}

}  // namespace
}  // namespace rtmobile

int main(int argc, char** argv) {
  using namespace rtmobile;

  CliParser cli;
  cli.add_flag("hidden", "256", "GRU hidden size of the served model");
  cli.add_flag("threads", std::to_string(ThreadPool::default_thread_count()),
               "thread pool size");
  cli.add_flag("seconds", "4", "audio seconds per stream");
  cli.add_flag("max-streams", "8", "largest concurrent-stream count");
  cli.add_flag("keep", "0.25", "BSP column keep fraction");
  cli.add_flag("precision", "fp32",
               "weight storage for the scaling table: fp32|fp16|int8|"
               "int8/row (the sweep section always covers all four)");
  cli.add_switch("quick",
                 "small model + short audio (CI smoke run; overrides "
                 "--hidden and --seconds)");
  WeightPrecision precision = WeightPrecision::kFp32;
  try {
    cli.parse(argc, argv);
    precision = weight_precision_from_string(
        cli.get_string("precision").c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n%s", e.what(),
                 cli.help("bench_streaming").c_str());
    return 1;
  }

  const bool quick = cli.get_switch("quick");
  const std::size_t hidden =
      quick ? 96 : static_cast<std::size_t>(cli.get_int("hidden"));
  const double seconds = quick ? 0.5 : cli.get_double("seconds");
  const std::size_t threads =
      static_cast<std::size_t>(cli.get_int("threads"));
  const std::size_t max_streams =
      static_cast<std::size_t>(cli.get_int("max-streams"));
  const double keep = cli.get_double("keep");

  std::printf(
      "Streaming engine scaling: hidden=%zu threads=%zu audio=%.1fs/stream "
      "keep=%.2f precision=%s%s\n\n",
      hidden, threads, seconds, keep, to_string(precision),
      quick ? " (quick)" : "");

  BenchSetup setup = build_model(hidden, threads, keep, precision);

  JsonReport report;
  Table table({"streams", "frames", "mean batch", "p50 us", "p95 us",
               "frames/s", "RTF", "speedup", "dec fps", "dec ovh%"});
  // Powers of two up to max-streams, always ending on max-streams itself
  // so a non-power-of-two request still benchmarks the count asked for.
  std::vector<std::size_t> stream_counts;
  for (std::size_t s = 1; s < max_streams; s *= 2) stream_counts.push_back(s);
  stream_counts.push_back(max_streams);
  double base_fps = 0.0;
  for (const std::size_t streams : stream_counts) {
    const runtime::RuntimeStats stats =
        run_serving(setup, streams, seconds, speech::DecodeMode::kNone).merged;
    const runtime::RuntimeStats decoded =
        run_serving(setup, streams, seconds, speech::DecodeMode::kGreedy)
            .merged;

    const double fps = stats.frames_per_second();
    const double decode_fps = decoded.frames_per_second();
    const double overhead_pct =
        decode_fps > 0.0 ? (fps / decode_fps - 1.0) * 100.0 : 0.0;
    if (streams == 1) base_fps = fps;
    table.add_row({std::to_string(streams),
                   std::to_string(stats.frames_processed),
                   format_double(stats.mean_batch(), 1),
                   format_double(stats.step_latency.p50_us(), 1),
                   format_double(stats.step_latency.p95_us(), 1),
                   format_double(fps, 0),
                   format_double(stats.real_time_factor(), 1),
                   format_double(base_fps > 0.0 ? fps / base_fps : 0.0, 2),
                   format_double(decode_fps, 0),
                   format_double(overhead_pct, 1)});

    JsonRecord record;
    record.set("section", "scaling");
    record.set("streams", static_cast<std::int64_t>(streams));
    record.set("hidden", static_cast<std::int64_t>(hidden));
    record.set("threads", static_cast<std::int64_t>(threads));
    record.set("precision", to_string(precision));
    record.set("frames", static_cast<std::int64_t>(stats.frames_processed));
    record.set("mean_batch", stats.mean_batch());
    record.set("p50_us", stats.step_latency.p50_us());
    record.set("p95_us", stats.step_latency.p95_us());
    record.set("frames_per_sec", fps);
    record.set("rtf", stats.real_time_factor());
    record.set("decode_frames_per_sec", decode_fps);
    record.set("decode_overhead_pct", overhead_pct);
    report.add(std::move(record));
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "RTF = audio seconds processed per compute second, summed over "
      "streams (>1 is faster than real time). dec fps re-runs the sweep "
      "with the in-loop greedy StreamingDecoder (partial-hypothesis "
      "events); dec ovh%% is its throughput cost.\n\n");

  // Precision sweep at the largest stream count: the same end-to-end
  // serving pipeline (streaming MFCC + batched engine) with the model
  // compiled at each packed storage width. This also exercises the
  // packed kernels in CI's sanitizer smoke run.
  std::printf("Weight-precision sweep at %zu streams:\n\n", max_streams);
  Table precision_table(
      {"precision", "weight MB", "frames/s", "RTF", "speedup"});
  double fp32_fps = 0.0;
  for (const WeightPrecision precision :
       {WeightPrecision::kFp32, WeightPrecision::kFp16,
        WeightPrecision::kInt8PerTensor, WeightPrecision::kInt8PerRow}) {
    const serve::GlobalStats served =
        run_serving(build_model(hidden, threads, keep, precision),
                    max_streams, seconds, speech::DecodeMode::kNone);
    const runtime::RuntimeStats& stats = served.merged;
    const double fps = stats.frames_per_second();
    if (precision == WeightPrecision::kFp32) fp32_fps = fps;
    precision_table.add_row(
        {to_string(precision),
         format_double(static_cast<double>(served.weight_bytes) /
                           (1024.0 * 1024.0),
                       2),
         format_double(fps, 0), format_double(stats.real_time_factor(), 1),
         format_double(fp32_fps > 0.0 ? fps / fp32_fps : 0.0, 2)});

    JsonRecord record;
    record.set("section", "precision");
    record.set("precision", to_string(precision));
    record.set("streams", static_cast<std::int64_t>(max_streams));
    record.set("weight_bytes", static_cast<std::int64_t>(served.weight_bytes));
    record.set("frames_per_sec", fps);
    record.set("rtf", stats.real_time_factor());
    report.add(std::move(record));
  }
  std::printf("%s\n", precision_table.to_string().c_str());

  report.write_file("streaming.json");
  std::printf("wrote streaming.json (%zu records)\n", report.size());
  return 0;
}
