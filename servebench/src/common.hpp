// Shared pieces of the serving benchmark: statistics with the tail rule,
// open-loop lateness accounting, the logit-bound check, an in-memory
// span tracer, the run report, and the two deployments the workloads
// serve (the int8 serving fleet and the paper's fp32 GRU).
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "compiler/gru_executor.hpp"
#include "rnn/model.hpp"
#include "sparse/block_mask.hpp"
#include "speech/streaming_decoder.hpp"
#include "tensor/matrix.hpp"

namespace servebench {

using Clock = std::chrono::steady_clock;

struct RunReport;

/// Seconds since a process-wide epoch (steady clock).
[[nodiscard]] double now_s();

// ------------------------------------------------------------ statistics

/// Nearest-rank quantile (q in [0, 1]) of `values`; 0 when empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// Samples that lie strictly beyond the q-quantile's nearest rank.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double q);

/// The tail rule: the highest percentile of the ladder 75, 90, 95, 99,
/// 99.9 with at least ten samples beyond it, for `n` samples; nullopt
/// below forty samples, where no percentile above the median is a tail.
[[nodiscard]] std::optional<double> tail_quantile(std::size_t n);

// -------------------------------------------------- open-loop accounting

/// Lateness of an open-loop generator: every operation has a due time
/// and is actually issued at or after it; latencies are timed from the
/// due time, so a generator stall counts against the system it delays,
/// and the lateness itself is reported so a late generator shows.
class LatenessLog {
 public:
  /// Records one issue: `due_s` and `issued_s` on the same clock.
  void record(double due_s, double issued_s);
  [[nodiscard]] std::size_t count() const { return late_ms_.size(); }
  /// Operations issued more than `slack_ms` after their due time.
  [[nodiscard]] std::size_t late_count(double slack_ms) const;
  [[nodiscard]] double quantile_ms(double q) const;

 private:
  std::vector<double> late_ms_;
};

// ------------------------------------------------------------ correctness

/// Result of comparing logits against the uncompiled reference.
struct LogitCheck {
  bool ok = true;
  std::size_t rows = 0;
  double max_abs_diff = 0.0;  // over every row
  std::size_t worst_row = 0;
  std::string message;  // set when !ok
};

/// Row-by-row agreement of `got` with `reference`: every element of every
/// row within `bound` (absolute), and equal shapes.
[[nodiscard]] LogitCheck check_logits(const rtmobile::Matrix& got,
                                      const rtmobile::Matrix& reference,
                                      double bound);

/// True when both matrices have equal shapes and bit-identical values.
[[nodiscard]] bool bit_equal(const rtmobile::Matrix& a,
                             const rtmobile::Matrix& b);

/// Concatenation of every event's stable delta (the final hypothesis).
[[nodiscard]] std::vector<std::uint16_t> concat_stable(
    const std::vector<rtmobile::speech::StreamEvent>& events);

/// Logit rows a streaming front end can emit after `samples` of audio
/// (before FINISH): MFCC frames less the delta lookahead.
[[nodiscard]] std::size_t rows_ready(std::size_t samples, bool finished);

// ---------------------------------------------------------------- latency

/// When one stream's audio was due and when its events arrived.
struct Timeline {
  std::vector<double> chunk_due_s;        // per audio chunk
  std::vector<std::size_t> chunk_rows;    // rows emittable once chunk k is in
  double finish_due_s = 0.0;              // FINISH due
  std::vector<double> event_s;            // arrival of events[i]
  std::vector<rtmobile::speech::StreamEvent> events;
};

/// Latency samples over many streams (see README for the definitions).
struct LatencySamples {
  std::vector<double> first_partial_ms;  // first chunk due -> first event
  std::vector<double> partial_lag_ms;    // chunk due -> event covering it
  std::vector<double> final_ms;          // FINISH due -> FINAL
  std::vector<double> frame_us;          // first chunk due -> FINAL, per row
  void add(const Timeline& timeline);
};

/// The tail every latency metric reports: p90, the highest ladder
/// percentile that the smallest per-run sample count of any workload
/// (about 200 live-wire utterances) supports with ten samples beyond it.
inline constexpr double kTailQuantile = 0.90;

/// Reports the eight latency metrics: medians and kTailQuantile tails. A
/// tail with fewer than ten samples beyond it fails a check.
void report_latency(RunReport& report, const LatencySamples& samples);

// ---------------------------------------------------------------- tracing

/// In-memory span recorder for the benchmark's own calls into each layer
/// of the program. Spans nest through a stack (one generator thread);
/// they are kept in memory and written out when the run ends.
class Tracer {
 public:
  struct Record {
    const char* layer = "";
    const char* name = "";
    std::uint64_t id = 0;
    std::uint64_t parent = 0;   // 0 = root
    std::uint64_t request = 0;  // stream the span served (0 = none)
    double start_s = 0.0;
    double end_s = 0.0;
  };

  /// RAII span; a no-op while the tracer is inactive.
  class Span {
   public:
    Span(Tracer& tracer, const char* layer, const char* name,
         std::uint64_t request = 0);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_ = nullptr;  // null when inactive
    std::size_t index_ = 0;
  };

  /// Turns recording on/off (the traced run alternates slices).
  void set_active(bool active) { active_ = active; }
  [[nodiscard]] bool active() const { return active_; }

  [[nodiscard]] const std::vector<Record>& records() const {
    return records_;
  }
  /// Per-layer self time in seconds: each span's duration less the part
  /// its direct children cover.
  [[nodiscard]] std::map<std::string, double> self_time_s() const;
  /// Mean duration in microseconds of the spans named `layer.name` (0
  /// when there are none).
  [[nodiscard]] double mean_us(const std::string& name) const;
  /// Writes every span as one JSON object per line.
  void write(const std::string& path) const;

 private:
  bool active_ = false;
  std::vector<Record> records_;
  std::vector<std::size_t> stack_;
};

// ----------------------------------------------------------------- report

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run did and measured.
struct RunReport {
  std::size_t attempted = 0;   // streams (utterances) started
  std::size_t completed = 0;   // streams that reached FINAL
  std::size_t failed = 0;      // streams that did not complete correctly
  /// OPEN attempts refused, by typed status (retried; not failures).
  std::map<std::string, std::size_t> open_refusals;
  std::size_t submits = 0;
  std::size_t submit_refusals = 0;
  std::size_t checks_run = 0;
  std::size_t checks_failed = 0;
  std::vector<std::string> check_failures;  // first few messages
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;

  void check(bool ok, const std::string& what);
  /// Stream accounting; also visible to the watchdog while running.
  void stream_started();
  void stream_finished(bool ok);
  void e2e(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void layer(const std::string& name, double value,
             const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
};

/// Streams started / finished so far, read by the stall watchdog.
inline std::atomic<std::size_t> g_streams_started{0};
inline std::atomic<std::size_t> g_streams_finished{0};

/// Peak resident set of this process, MiB.
[[nodiscard]] double peak_rss_mb();

// ------------------------------------------------------------ deployments

/// A pruned uncompiled model plus the BSP masks it was pruned with; the
/// reference every compiled output is checked against.
struct PrunedModel {
  std::unique_ptr<rtmobile::SpeechModel> model;
  std::map<std::string, rtmobile::BlockMask> masks;
};

/// Builds `config` from a fixed weight seed and prunes every weight
/// matrix to BSP column keep `keep` (block 8 x 4), then keeps
/// `row_keep` of the rows (1.0 = no row pruning).
[[nodiscard]] PrunedModel build_pruned(const rtmobile::ModelConfig& config,
                                       double keep, double row_keep);

/// The serving deployment's compiler options: BSPC, int8 per-row weights,
/// int8 activations, the fused step at every width, one thread.
[[nodiscard]] rtmobile::CompilerOptions serving_options();
/// The paper workload's compiler options: BSPC fp32, one thread.
[[nodiscard]] rtmobile::CompilerOptions paper_options();

/// Per-row logit bounds against the uncompiled reference, by precision.
inline constexpr double kFp32LogitBound = 1e-5;
inline constexpr double kInt8Act8LogitBound = 0.05;

/// Compute shards for the serving deployment: one per core, less the
/// core the load generator runs on.
[[nodiscard]] std::size_t serving_shards();

/// One synthesized utterance (16 kHz), distinct per (seed, index).
[[nodiscard]] std::vector<float> synth_utterance(std::uint64_t seed,
                                                 std::uint64_t index,
                                                 std::size_t min_phones,
                                                 std::size_t max_phones);

/// Batch MFCC features (CMN off, as the streaming front end computes).
[[nodiscard]] rtmobile::Matrix batch_features(const std::vector<float>& wave);

inline constexpr double kSampleRateHz = 16000.0;
inline constexpr std::size_t kChunkSamples = 1600;  // 100 ms
inline constexpr double kFrameSeconds = 0.010;      // MFCC frame shift

/// Workload entry points.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_path;  // where spans are written when tracing
};
RunReport run_live_wire(const RunOptions& options);
RunReport run_fleet(const RunOptions& options, bool repeat);
RunReport run_paper_single(const RunOptions& options);

}  // namespace servebench
