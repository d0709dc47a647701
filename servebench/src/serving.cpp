#include "serving.hpp"

#include <algorithm>

#include "speech/streaming_mfcc.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace servebench {

using namespace rtmobile;

ServingDeployment set_up_serving(bool live, RunReport& report) {
  ServingDeployment deployment;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    // Tear the previous set-up down front to back: the server uses the
    // engine, and both use the telemetry.
    deployment.server.reset();
    deployment.engine.reset();
    deployment.telemetry.reset();
    const double start = now_s();
    deployment.pruned = build_pruned(ModelConfig::scaled(1024), 0.25, 1.0);
    if (live) deployment.telemetry = std::make_unique<obs::Telemetry>();
    serve::ShardConfig config;
    config.shards = serving_shards();
    config.threads_per_shard = 1;
    config.engine.max_batch = kPanelWidth;
    config.engine.cache.enabled = true;
    config.engine.cache.byte_budget = kCacheBudgetBytes;
    config.engine.telemetry = deployment.telemetry.get();
    deployment.engine = std::make_unique<serve::ShardedEngine>(
        *deployment.pruned.model, deployment.pruned.masks, serving_options(),
        config);
    deployment.engine->start();
    if (live) {
      net::ServerConfig server;
      server.drive_recognizer = false;
      server.telemetry = deployment.telemetry.get();
      deployment.server =
          std::make_unique<net::RecognizerServer>(*deployment.engine, server);
      deployment.server->start();
    }
    setup_s.push_back(now_s() - start);
  }
  report.e2e("setup_s", quantile(setup_s, 0.5), "s");
  return deployment;
}

void report_engine_stats(const serve::ShardedEngine& engine,
                         RunReport& report) {
  const serve::GlobalStats global = engine.stats();
  const runtime::RuntimeStats& m = global.merged;
  report.e2e("weight_bytes", static_cast<double>(global.weight_bytes),
             "bytes");
  report.layer("runtime.steps", static_cast<double>(m.steps), "count");
  report.layer("runtime.frames", static_cast<double>(m.frames_processed),
               "count");
  report.layer("runtime.batch_width_mean", m.fused_width.mean_us(),
               "streams");
  report.layer("runtime.step_us_p50", m.step_latency.quantile_us(0.5), "us");
  report.layer("runtime.step_us_tail", m.step_latency.quantile_us(0.99),
               "us");
  report.layer("runtime.busy_share",
               global.wall_us > 0.0
                   ? m.busy_us / (global.wall_us *
                                  static_cast<double>(global.shards))
                   : 0.0,
               "ratio");
  report.layer("runtime.fused_steps", static_cast<double>(m.fused_steps),
               "count");
  report.layer("runtime.fallback_steps",
               static_cast<double>(m.fallback_steps), "count");
  report.layer("runtime.lag_ms_p99", m.lag.quantile_us(0.99) * 1e-3, "ms");
  report.layer("cache.hits", static_cast<double>(m.cache_hits), "count");
  report.layer("cache.misses", static_cast<double>(m.cache_misses), "count");
  report.layer("cache.hit_ratio",
               m.frames_processed > 0
                   ? static_cast<double>(m.cache_hits) /
                         static_cast<double>(m.frames_processed)
                   : 0.0,
               "ratio");
  report.layer("cache.skipped_steps",
               static_cast<double>(m.cache_skipped_steps), "count");
  report.layer("cache.evictions", static_cast<double>(m.cache_evictions),
               "count");
  report.layer("cache.resident_bytes", static_cast<double>(m.cache_bytes),
               "bytes");
  std::size_t lo = ~std::size_t{0};
  std::size_t hi = 0;
  for (std::size_t s = 0; s < engine.shard_count(); ++s) {
    const std::size_t frames = engine.shard_stats(s).frames_processed;
    lo = std::min(lo, frames);
    hi = std::max(hi, frames);
  }
  report.layer("serve.shard_frame_skew",
               lo > 0 ? static_cast<double>(hi) / static_cast<double>(lo)
                      : 0.0,
               "ratio");
}

void report_serve_calls(const Tracer& tracer, std::size_t wakeups,
                        RunReport& report) {
  report.layer("serve.open_us", tracer.mean_us("serve.open"), "us");
  report.layer("serve.submit_us", tracer.mean_us("serve.submit"), "us");
  report.layer("serve.poll_us", tracer.mean_us("serve.poll"), "us");
  report.layer("serve.submits", static_cast<double>(report.submits), "count");
  report.layer("serve.submit_refusals",
               static_cast<double>(report.submit_refusals), "count");
  report.layer("serve.wait_wakeups", static_cast<double>(wakeups), "count");
}

void probe_compiler(const PrunedModel& pruned, const CompilerOptions& options,
                    std::size_t width, const Matrix& features,
                    RunReport& report) {
  const CompiledSpeechModel replica(*pruned.model, pruned.masks, options);
  width = std::max<std::size_t>(width, 1);
  Rng rng(99);
  Matrix panel(width, replica.config().input_dim);
  fill_normal(panel.span(), rng, 1.0F);
  Matrix logits(width, replica.config().num_classes);
  std::vector<StreamState> states(width, replica.make_state());
  std::vector<StreamState*> ptrs;
  for (StreamState& s : states) ptrs.push_back(&s);
  for (int i = 0; i < 3; ++i) (void)replica.step_batch(panel, ptrs, logits);
  std::vector<double> step_us;
  for (int i = 0; i < 40; ++i) {
    const double start = now_s();
    (void)replica.step_batch(panel, ptrs, logits);
    step_us.push_back((now_s() - start) * 1e6);
  }
  const double step = quantile(step_us, 0.5);
  std::vector<double> infer_us;
  for (int i = 0; i < 3; ++i) {
    const double start = now_s();
    const Matrix out = replica.infer(features);
    infer_us.push_back((now_s() - start) * 1e6 /
                       static_cast<double>(out.rows()));
  }
  // MACs and bytes come from tensor sizes: one multiply-accumulate per
  // stored weight per stream, and every compiled weight byte read once
  // per fused step.
  const double macs = static_cast<double>(replica.total_nnz());
  const double bytes = static_cast<double>(replica.total_memory_bytes());
  report.layer("compiler.infer_us_per_frame", quantile(infer_us, 0.5), "us");
  report.layer("compiler.step_batch_us", step, "us");
  report.layer("compiler.step_batch_width", static_cast<double>(width),
               "streams");
  report.layer("kernel.macs_per_frame", macs, "count");
  report.layer("kernel.weight_bytes_per_step", bytes, "bytes");
  report.layer("kernel.gmacs_per_s",
               step > 0.0 ? macs * static_cast<double>(width) / step * 1e-3
                          : 0.0,
               "GMAC/s");
  report.layer("kernel.gbytes_per_s", step > 0.0 ? bytes / step * 1e-3 : 0.0,
               "GB/s");
}

void probe_speech(const std::vector<std::vector<float>>& waves,
                  const Matrix& logits, RunReport& report) {
  speech::MfccConfig config;
  config.cepstral_mean_norm = false;
  double mfcc_s = 0.0;
  std::size_t frames = 0;
  for (const std::vector<float>& wave : waves) {
    speech::StreamingMfcc mfcc(config);
    const double start = now_s();
    for (std::size_t off = 0; off < wave.size(); off += kChunkSamples) {
      const std::size_t n = std::min(kChunkSamples, wave.size() - off);
      mfcc.push(std::span<const float>(wave.data() + off, n));
      frames += mfcc.pop_ready().rows();
    }
    mfcc.finish();
    frames += mfcc.pop_ready().rows();
    mfcc_s += now_s() - start;
  }
  double decode_s = 0.0;
  std::size_t rows = 0;
  for (int rep = 0; rep < 20; ++rep) {
    speech::StreamingDecoder decoder(logits.cols());
    std::vector<speech::StreamEvent> events;
    const double start = now_s();
    for (std::size_t r = 0; r < logits.rows(); ++r) {
      decoder.push_row(logits.row(r));
      decoder.poll_events(events);
    }
    decoder.finish();
    decoder.poll_events(events);
    decode_s += now_s() - start;
    rows += logits.rows();
  }
  report.layer("speech.mfcc_us_per_frame",
               frames > 0 ? mfcc_s * 1e6 / static_cast<double>(frames) : 0.0,
               "us");
  report.layer("speech.decode_us_per_row",
               rows > 0 ? decode_s * 1e6 / static_cast<double>(rows) : 0.0,
               "us");
}

void report_trace(const Tracer& tracer, double traced_headline,
                  double untraced_headline, bool higher_is_better,
                  RunReport& report, const std::string& path) {
  const std::map<std::string, double> self = tracer.self_time_s();
  for (const char* layer :
       {"bench", "serve", "net", "obs", "compiler", "speech"}) {
    const auto it = self.find(layer);
    report.layer(std::string("self.") + layer + "_ms",
                 it == self.end() ? 0.0 : it->second * 1e3, "ms");
  }
  report.layer("trace.spans", static_cast<double>(tracer.records().size()),
               "count");
  // Positive = the traced slices did worse than the untraced ones.
  double overhead = 0.0;
  if (untraced_headline > 0.0) {
    overhead = (traced_headline - untraced_headline) / untraced_headline;
    if (higher_is_better) overhead = -overhead;
  }
  report.layer("trace.overhead_pct", overhead * 100.0, "%");
  if (!path.empty()) tracer.write(path);
}

}  // namespace servebench
