// paper-single: Table II's measurement. The paper's full-size GRU
// (153 -> 1024 x 2 -> 39, BSP column keep 0.25 plus row pruning), fp32,
// compiled single-threaded, runs CompiledSpeechModel::infer on one
// seeded utterance of random 153-dim feature frames at a time. Each
// utterance is offered whole: its chunks and FINISH are all due when
// infer starts, and its rows are then decoded by a StreamingDecoder, so
// every latency metric waits for the one infer call.
#include <optional>

#include "serving.hpp"
#include "speech/decoder.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace servebench {

using namespace rtmobile;

namespace {

constexpr double kSliceSeconds = 1.0;
constexpr std::size_t kRowsPerChunk = 10;  // 100 ms of 10 ms frames
constexpr std::size_t kReferenceChecks = 2;

Matrix random_features(std::uint64_t seed, std::uint64_t index,
                       std::size_t dim) {
  std::uint64_t state = seed * 0xD1B54A32D192ED03ULL + index;
  Rng rng(splitmix64(state));
  // 0.2 - 0.6 s, cycling with the index so every run sees the same mix.
  const std::size_t frames = 20 + 10 * (index % 5);
  Matrix features(frames, dim);
  fill_normal(features.span(), rng, 1.0F);
  return features;
}

}  // namespace

RunReport run_paper_single(const RunOptions& options) {
  RunReport report;
  PrunedModel pruned;
  std::unique_ptr<CompiledSpeechModel> compiled;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    compiled.reset();
    const double start = now_s();
    pruned = build_pruned(ModelConfig::paper_full_size(), 0.25, 0.8);
    compiled = std::make_unique<CompiledSpeechModel>(
        *pruned.model, pruned.masks, paper_options());
    setup_s.push_back(now_s() - start);
  }
  report.e2e("setup_s", quantile(setup_s, 0.5), "s");
  report.e2e("weight_bytes",
             static_cast<double>(compiled->total_memory_bytes()), "bytes");
  const std::size_t dim = compiled->config().input_dim;

  // Warm the caches and the allocator before the window.
  (void)compiled->infer(random_features(options.seed, ~0ULL, dim));

  Tracer tracer;
  LatencySamples samples;
  std::vector<double> slice_frame_us[2];  // [traced, untraced]
  std::vector<double> slice_xrt;
  struct RefCase {
    Matrix features;
    Matrix logits;
  };
  std::vector<RefCase> ref_cases;
  double decode_s = 0.0;
  std::size_t decode_rows = 0;

  const double window_start = now_s();
  const double window_end = window_start + options.seconds;
  std::size_t slice_index = 0;
  double slice_start = window_start;
  std::size_t slice_rows = 0;
  double slice_infer_s = 0.0;
  std::optional<Tracer::Span> slice_span;
  tracer.set_active(options.trace);
  if (options.trace) slice_span.emplace(tracer, "bench", "slice");

  for (std::uint64_t index = 0;; ++index) {
    const double t = now_s();
    if (t >= slice_start + kSliceSeconds || t >= window_end) {
      const bool traced = options.trace && slice_index % 2 == 0;
      if (slice_rows > 0) {
        slice_frame_us[traced ? 0 : 1].push_back(
            slice_infer_s * 1e6 / static_cast<double>(slice_rows));
        slice_xrt.push_back(static_cast<double>(slice_rows) * kFrameSeconds /
                            (t - slice_start));
      }
      slice_span.reset();
      ++slice_index;
      slice_start = t;
      slice_rows = 0;
      slice_infer_s = 0.0;
      if (t >= window_end) break;
      const bool next_traced = options.trace && slice_index % 2 == 0;
      tracer.set_active(next_traced);
      if (next_traced) slice_span.emplace(tracer, "bench", "slice");
    }
    const Matrix features = [&] {
      Tracer::Span span(tracer, "bench", "features", index + 1);
      return random_features(options.seed, index, dim);
    }();
    report.stream_started();

    Timeline timeline;
    const double due = now_s();
    Matrix logits;
    {
      Tracer::Span span(tracer, "compiler", "infer", index + 1);
      logits = compiled->infer(features);
    }
    const double inferred = now_s();
    slice_infer_s += inferred - due;
    slice_rows += logits.rows();
    const std::size_t chunks =
        (features.rows() + kRowsPerChunk - 1) / kRowsPerChunk;
    for (std::size_t k = 0; k < chunks; ++k) {
      timeline.chunk_due_s.push_back(due);
      timeline.chunk_rows.push_back(
          std::min((k + 1) * kRowsPerChunk, features.rows()));
    }
    timeline.finish_due_s = due;
    {
      Tracer::Span span(tracer, "speech", "decode", index + 1);
      speech::StreamingDecoder decoder(logits.cols());
      std::vector<speech::StreamEvent> events;
      for (std::size_t r = 0; r < logits.rows(); ++r) {
        decoder.push_row(logits.row(r));
        if (decoder.poll_events(events) > 0) {
          timeline.event_s.resize(events.size(), now_s());
        }
      }
      decoder.finish();
      decoder.poll_events(events);
      timeline.event_s.resize(events.size(), now_s());
      timeline.events = std::move(events);
    }
    decode_s += now_s() - inferred;
    decode_rows += logits.rows();

    Tracer::Span span(tracer, "bench", "check", index + 1);
    std::size_t finals = 0;
    for (const speech::StreamEvent& e : timeline.events) {
      finals += e.is_final ? 1 : 0;
    }
    const bool one_final = finals == 1 && timeline.events.back().is_final;
    const bool rows_ok = logits.rows() == features.rows();
    const bool decode_ok =
        concat_stable(timeline.events) == speech::greedy_decode(logits);
    const std::string tag = "utterance " + std::to_string(index);
    report.check(one_final, tag + ": not exactly one FINAL");
    report.check(rows_ok, tag + ": logit rows != feature frames");
    report.check(decode_ok, tag + ": stable deltas != greedy_decode");
    report.stream_finished(one_final && rows_ok && decode_ok);
    samples.add(timeline);
    if (ref_cases.size() < kReferenceChecks) {
      ref_cases.push_back({features, logits});
    }
  }
  slice_span.reset();
  tracer.set_active(false);

  for (const RefCase& c : ref_cases) {
    const LogitCheck check = check_logits(
        c.logits, pruned.model->forward(c.features), kFp32LogitBound);
    report.check(check.ok, "reference logits: " + check.message);
  }

  report.e2e("xrt", quantile(slice_xrt, 0.5), "audio_s/s");
  report_latency(report, samples);
  report.e2e("peak_rss_mb", peak_rss_mb(), "MiB");

  if (options.trace) {
    report_trace(tracer, quantile(slice_frame_us[0], 0.5),
                 quantile(slice_frame_us[1], 0.5), false, report,
                 options.trace_path);
    probe_compiler(pruned, paper_options(), 1, ref_cases.front().features,
                   report);
    report.layer("speech.decode_us_per_row",
                 decode_rows > 0
                     ? decode_s * 1e6 / static_cast<double>(decode_rows)
                     : 0.0,
                 "us");
  }
  return report;
}

}  // namespace servebench
