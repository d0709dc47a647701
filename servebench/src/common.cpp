#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

#include "rnn/param_set.hpp"
#include "speech/mfcc.hpp"
#include "speech/phones.hpp"
#include "speech/synth.hpp"
#include "train/projection.hpp"
#include "util/rng.hpp"

namespace servebench {

using namespace rtmobile;

double now_s() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double>(Clock::now() - epoch).count();
}

// ------------------------------------------------------------ statistics

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  // Nearest rank: the smallest value with at least q*n samples at or
  // below it.
  const double n = static_cast<double>(values.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  if (rank < 1) rank = 1;
  return values[std::min(rank, values.size()) - 1];
}

std::size_t samples_beyond(std::size_t n, double q) {
  if (n == 0) return 0;
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  if (rank < 1) rank = 1;
  return n - std::min(rank, n);
}

std::optional<double> tail_quantile(std::size_t n) {
  if (n < 40) return std::nullopt;
  std::optional<double> best;
  for (const double q : {0.75, 0.90, 0.95, 0.99, 0.999}) {
    if (samples_beyond(n, q) >= 10) best = q;
  }
  return best;
}

// -------------------------------------------------- open-loop accounting

void LatenessLog::record(double due_s, double issued_s) {
  late_ms_.push_back(std::max(0.0, issued_s - due_s) * 1e3);
}

std::size_t LatenessLog::late_count(double slack_ms) const {
  return static_cast<std::size_t>(
      std::count_if(late_ms_.begin(), late_ms_.end(),
                    [slack_ms](double late) { return late > slack_ms; }));
}

double LatenessLog::quantile_ms(double q) const {
  return quantile(late_ms_, q);
}

// ------------------------------------------------------------ correctness

LogitCheck check_logits(const Matrix& got, const Matrix& reference,
                        double bound) {
  LogitCheck result;
  if (got.rows() != reference.rows() || got.cols() != reference.cols()) {
    result.ok = false;
    result.message = "shape " + std::to_string(got.rows()) + "x" +
                     std::to_string(got.cols()) + " vs reference " +
                     std::to_string(reference.rows()) + "x" +
                     std::to_string(reference.cols());
    return result;
  }
  result.rows = got.rows();
  for (std::size_t r = 0; r < got.rows(); ++r) {
    const auto a = got.row(r);
    const auto b = reference.row(r);
    double row_max = 0.0;
    for (std::size_t c = 0; c < a.size(); ++c) {
      const double diff = std::fabs(static_cast<double>(a[c]) - b[c]);
      // NaN compares false against everything: count it as out of bound.
      if (!(diff <= bound)) row_max = std::max(row_max, bound * 2 + 1);
      row_max = std::max(row_max, diff);
    }
    if (row_max > result.max_abs_diff) {
      result.max_abs_diff = row_max;
      result.worst_row = r;
    }
  }
  if (!(result.max_abs_diff <= bound)) {
    result.ok = false;
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "row %zu differs from the reference by %.3g (bound %.3g)",
                  result.worst_row, result.max_abs_diff, bound);
    result.message = buf;
  }
  return result;
}

bool bit_equal(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  const auto sa = a.span();
  const auto sb = b.span();
  return std::memcmp(sa.data(), sb.data(), sa.size_bytes()) == 0;
}

std::vector<std::uint16_t> concat_stable(
    const std::vector<speech::StreamEvent>& events) {
  std::vector<std::uint16_t> out;
  for (const speech::StreamEvent& e : events) {
    out.insert(out.end(), e.stable.begin(), e.stable.end());
  }
  return out;
}

std::size_t rows_ready(std::size_t samples, bool finished) {
  static const speech::MfccExtractor extractor([] {
    speech::MfccConfig config;
    config.cepstral_mean_norm = false;
    return config;
  }());
  const std::size_t frames = extractor.frame_count(samples);
  if (finished) return frames;
  const std::size_t lookahead = 2 * speech::kDeltaRegressionWindow;
  return frames > lookahead ? frames - lookahead : 0;
}

// ---------------------------------------------------------------- latency

void LatencySamples::add(const Timeline& t) {
  if (t.chunk_due_s.empty()) return;
  double final_s = -1.0;
  std::size_t final_rows = 0;
  bool first = true;
  for (std::size_t i = 0; i < t.events.size(); ++i) {
    const speech::StreamEvent& e = t.events[i];
    if (e.kind != speech::StreamEventKind::kHypothesis) continue;
    if (first) {
      first_partial_ms.push_back((t.event_s[i] - t.chunk_due_s[0]) * 1e3);
      first = false;
    }
    if (e.is_final && final_s < 0.0) {
      final_s = t.event_s[i];
      final_rows = e.frames;
    }
  }
  std::size_t next = 0;  // events are in arrival order, frames ascending
  for (std::size_t k = 0; k < t.chunk_due_s.size(); ++k) {
    if (t.chunk_rows[k] == 0) continue;
    while (next < t.events.size() && t.events[next].frames < t.chunk_rows[k]) {
      ++next;
    }
    if (next == t.events.size()) break;
    partial_lag_ms.push_back((t.event_s[next] - t.chunk_due_s[k]) * 1e3);
  }
  if (final_s >= 0.0) {
    final_ms.push_back((final_s - t.finish_due_s) * 1e3);
    if (final_rows > 0) {
      frame_us.push_back((final_s - t.chunk_due_s[0]) * 1e6 /
                         static_cast<double>(final_rows));
    }
  }
}

void report_latency(RunReport& report, const LatencySamples& samples) {
  const auto emit = [&report](const std::string& stem,
                              const std::vector<double>& values,
                              const std::string& unit) {
    const double q = kTailQuantile;
    report.e2e(stem + (unit == "us" ? "_p50" : "_p50_ms"),
               quantile(values, 0.5), unit);
    report.e2e(stem + (unit == "us" ? "_tail" : "_tail_ms"),
               quantile(values, q), unit);
    const std::optional<double> supported = tail_quantile(values.size());
    report.check(supported.has_value() && *supported >= q,
                 stem + ": " + std::to_string(values.size()) +
                     " samples leave fewer than ten beyond the tail");
  };
  emit("first_partial", samples.first_partial_ms, "ms");
  emit("partial_lag", samples.partial_lag_ms, "ms");
  emit("final", samples.final_ms, "ms");
  emit("frame_us", samples.frame_us, "us");
}

// ---------------------------------------------------------------- tracing

Tracer::Span::Span(Tracer& tracer, const char* layer, const char* name,
                   std::uint64_t request) {
  if (!tracer.active_) return;
  tracer_ = &tracer;
  Record record;
  record.layer = layer;
  record.name = name;
  record.id = tracer.records_.size() + 1;
  record.parent = tracer.stack_.empty()
                      ? 0
                      : tracer.records_[tracer.stack_.back()].id;
  record.request = request;
  index_ = tracer.records_.size();
  tracer.records_.push_back(record);
  tracer.stack_.push_back(index_);
  tracer.records_[index_].start_s = now_s();
}

Tracer::Span::~Span() {
  if (tracer_ == nullptr) return;
  tracer_->records_[index_].end_s = now_s();
  tracer_->stack_.pop_back();
}

std::map<std::string, double> Tracer::self_time_s() const {
  std::vector<double> child_s(records_.size(), 0.0);
  for (const Record& r : records_) {
    if (r.parent != 0) child_s[r.parent - 1] += r.end_s - r.start_s;
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    self[r.layer] += (r.end_s - r.start_s) - child_s[i];
  }
  return self;
}

double Tracer::mean_us(const std::string& name) const {
  double total_s = 0.0;
  std::size_t n = 0;
  for (const Record& r : records_) {
    if (name == std::string(r.layer) + "." + r.name) {
      total_s += r.end_s - r.start_s;
      ++n;
    }
  }
  return n > 0 ? total_s * 1e6 / static_cast<double>(n) : 0.0;
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return;
  for (const Record& r : records_) {
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "{\"id\":%llu,\"parent\":%llu,\"request\":%llu,"
                  "\"layer\":\"%s\",\"name\":\"%s\",\"start_us\":%.3f,"
                  "\"end_us\":%.3f}\n",
                  static_cast<unsigned long long>(r.id),
                  static_cast<unsigned long long>(r.parent),
                  static_cast<unsigned long long>(r.request), r.layer, r.name,
                  r.start_s * 1e6, r.end_s * 1e6);
    out << buf;
  }
}

// ----------------------------------------------------------------- report

void RunReport::check(bool ok, const std::string& what) {
  ++checks_run;
  if (ok) return;
  ++checks_failed;
  if (check_failures.size() < 8) check_failures.push_back(what);
}

void RunReport::stream_started() {
  ++attempted;
  ++g_streams_started;
}

void RunReport::stream_finished(bool ok) {
  ++(ok ? completed : failed);
  ++g_streams_finished;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ------------------------------------------------------------ deployments

PrunedModel build_pruned(const ModelConfig& config, double keep,
                         double row_keep) {
  PrunedModel out;
  Rng rng(1234);  // the deployment's weights; inputs come from --seed
  out.model = std::make_unique<SpeechModel>(config);
  out.model->init(rng);
  ParamSet params;
  out.model->register_params(params);
  for (const std::string& name : out.model->weight_names()) {
    Matrix& w = params.matrix(name);
    BlockMask mask = block_column_mask(w, 8, 4, keep);
    if (row_keep < 1.0) apply_row_pruning(w, row_keep, mask);
    mask.apply(w);
    out.masks.emplace(name, std::move(mask));
  }
  return out;
}

CompilerOptions serving_options() {
  CompilerOptions options;
  options.format = SparseFormat::kBspc;
  options.precision = WeightPrecision::kInt8PerRow;
  options.activation = ActivationPrecision::kInt8;
  options.fused = FusedMode::kAlways;
  options.threads = 1;
  return options;
}

CompilerOptions paper_options() {
  CompilerOptions options;
  options.format = SparseFormat::kBspc;
  options.threads = 1;
  return options;
}

std::size_t serving_shards() {
  const unsigned cores = std::thread::hardware_concurrency();
  return cores > 1 ? cores - 1 : 1;
}

std::vector<float> synth_utterance(std::uint64_t seed, std::uint64_t index,
                                   std::size_t min_phones,
                                   std::size_t max_phones) {
  std::uint64_t state = seed * 0x9E3779B97F4A7C15ULL + index;
  Rng rng(splitmix64(state));
  // Lengths cycle through the range with the index, so every run deals
  // the same mix of lengths whatever the seed; the seed picks the phones.
  const std::size_t phones = min_phones + index % (max_phones - min_phones + 1);
  std::vector<std::size_t> ids(phones);
  std::vector<std::size_t> durations(phones);
  for (std::size_t i = 0; i < phones; ++i) {
    ids[i] = rng.next_below(speech::kNumSurfacePhones);
    durations[i] = 800 + rng.next_below(801);  // 50-100 ms per phone
  }
  static const speech::Synthesizer synth;
  return synth.render_sequence(ids, durations, rng);
}

Matrix batch_features(const std::vector<float>& wave) {
  static const speech::MfccExtractor extractor([] {
    speech::MfccConfig config;
    config.cepstral_mean_norm = false;
    return config;
  }());
  return extractor.extract(wave);
}

}  // namespace servebench
