// The serving deployment the live-wire and fleet workloads share, and
// the per-layer probes and stats readouts both report.
#pragma once

#include <memory>
#include <vector>

#include "common.hpp"
#include "net/recognizer_server.hpp"
#include "obs/telemetry.hpp"
#include "serve/sharded_engine.hpp"

namespace servebench {

/// Streams one shard's engine advances per step: the fused panel width.
inline constexpr std::size_t kPanelWidth = 16;
/// Per-shard prefix-cache byte budget.
inline constexpr std::size_t kCacheBudgetBytes = 16U << 20;
/// Set-ups per run; setup_s is their median.
inline constexpr int kSetups = 5;

/// The full-width int8 fleet: pruned reference model, started
/// ShardedEngine, and (live only) telemetry plus the TCP front. Members
/// are destroyed in reverse order: the server before the engine it
/// fronts, both before the telemetry they report into.
struct ServingDeployment {
  PrunedModel pruned;
  std::unique_ptr<rtmobile::obs::Telemetry> telemetry;
  std::unique_ptr<rtmobile::serve::ShardedEngine> engine;
  std::unique_ptr<rtmobile::net::RecognizerServer> server;
};

/// Sets the deployment up kSetups times, keeps the last one, and reports
/// the median set-up time as setup_s.
[[nodiscard]] ServingDeployment set_up_serving(bool live, RunReport& report);

/// Reports the runtime/cache/serve-skew per-layer metrics from the
/// stopped engine's fleet stats.
void report_engine_stats(const rtmobile::serve::ShardedEngine& engine,
                         RunReport& report);

/// Reports the serve-layer call metrics: mean open/submit/poll span
/// times, submits and refusals, and wait_for_events wake-ups.
void report_serve_calls(const Tracer& tracer, std::size_t wakeups,
                        RunReport& report);

/// Times step_batch at `width` on a replica compiled like `options`,
/// and infer on `features`, and reports the compiler/kernel metrics.
void probe_compiler(const PrunedModel& pruned,
                    const rtmobile::CompilerOptions& options,
                    std::size_t width, const rtmobile::Matrix& features,
                    RunReport& report);

/// Times StreamingMfcc (100 ms pushes) and StreamingDecoder over `waves`
/// and reports speech.mfcc_us_per_frame / speech.decode_us_per_row.
void probe_speech(const std::vector<std::vector<float>>& waves,
                  const rtmobile::Matrix& logits, RunReport& report);

/// Length of the wire probe in a traced fleet-unique run.
inline constexpr double kWireProbeSeconds = 2.0;

/// Puts a telemetry-on TCP front on the running `engine`, drives it as
/// live-wire does for kWireProbeSeconds, checks each utterance got one
/// FINAL, and reports the net/obs/generator per-layer metrics.
void run_wire_probe(rtmobile::serve::ShardedEngine& engine,
                    std::uint64_t seed, Tracer& tracer, RunReport& report);

/// Reports the per-layer self times and span counts of a traced run.
void report_trace(const Tracer& tracer, double traced_headline,
                  double untraced_headline, bool higher_is_better,
                  RunReport& report, const std::string& path);

}  // namespace servebench
