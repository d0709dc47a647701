// fleet-unique / fleet-repeat: in-process closed-loop throughput.
//
// One generator thread keeps a fixed number of streams open on the
// started ShardedEngine, more than one fused panel per shard, and pushes
// each stream's audio as fast as ingress accepts it. When a stream's
// FINAL arrives its logits are read, checked, and the stream is closed;
// a new stream takes its place. fleet-unique opens a freshly synthesized
// utterance every time; fleet-repeat deals utterances from a small Zipf
// pool, so the prefix cache serves most frames.
#include <optional>
#include <unordered_map>

#include "serving.hpp"
#include "speech/decoder.hpp"
#include "speech/mfcc.hpp"
#include "speech/synth.hpp"

namespace servebench {

using namespace rtmobile;

namespace {

constexpr double kWarmupSeconds = 1.0;
constexpr double kSliceSeconds = 1.0;
/// Streams kept open: four fused panels per shard, so a shard still has
/// streams with queued audio while the generator refills finished ones.
std::size_t open_target() { return serving_shards() * kPanelWidth * 4; }
/// Streams whose logits are also checked against the uncompiled model.
constexpr std::size_t kReferenceChecks = 2;

struct FleetStream {
  serve::StreamHandle handle;
  std::uint64_t seq = 0;
  std::size_t rank = 0;  // pool rank (repeat) or utterance index (unique)
  std::vector<float> own_wave;                // unique traffic
  const std::vector<float>* pooled = nullptr;  // repeat traffic
  [[nodiscard]] const std::vector<float>& wave() const {
    return pooled != nullptr ? *pooled : own_wave;
  }
  std::size_t next_chunk = 0;
  bool finish_sent = false;
  bool final_seen = false;
  bool measured = false;  // opened inside the measurement window
  std::size_t frames_seen = 0;
  Timeline timeline;
};

}  // namespace

RunReport run_fleet(const RunOptions& options, bool repeat) {
  RunReport report;
  ServingDeployment deployment = set_up_serving(false, report);
  serve::ShardedEngine& engine = *deployment.engine;
  Tracer tracer;

  speech::RepeatTrafficConfig traffic;
  traffic.distinct_utterances = 16;
  traffic.skew = 1.1;
  traffic.phones_per_utterance = 8;
  traffic.samples_per_phone = 1200;
  traffic.seed = options.seed;
  std::optional<speech::UtteranceRepeatGenerator> pool;
  if (repeat) pool.emplace(traffic);
  const speech::MfccExtractor extractor([] {
    speech::MfccConfig config;
    config.cepstral_mean_norm = false;
    return config;
  }());

  std::vector<FleetStream> open;
  std::unordered_map<std::uint64_t, std::size_t> by_handle;
  std::vector<serve::StreamHandle> closing;  // close_stream refused; retry
  std::map<std::size_t, Matrix> first_logits;  // repeat: rank -> logits
  struct RefCase {
    const std::vector<float>* wave;
    std::vector<float> own;
    Matrix logits;
  };
  std::vector<RefCase> ref_cases;
  std::vector<std::vector<float>> probe_waves;
  LatencySamples samples;
  std::uint64_t next_seq = 0;
  std::size_t frames_total = 0;  // logit rows covered by events so far
  std::size_t wakeups = 0;

  const double start = now_s();
  const double window_start = start + kWarmupSeconds;
  const double window_end = window_start + options.seconds;
  const double give_up = window_end + 60.0;
  std::vector<double> slice_xrt[2];  // [traced, untraced] per slice
  std::size_t slice_index = 0;
  double slice_start = window_start;
  std::size_t slice_frames = 0;
  std::optional<Tracer::Span> slice_span;
  bool in_window = false;

  const auto finish_slice = [&](double t) {
    if (!in_window) return;
    const double xrt = static_cast<double>(frames_total - slice_frames) *
                       kFrameSeconds / (t - slice_start);
    slice_xrt[options.trace && slice_index % 2 == 0 ? 0 : 1].push_back(xrt);
  };

  for (;;) {
    double t = now_s();
    if (!in_window && t >= window_start && t < window_end) {
      in_window = true;
      slice_start = t;
      slice_frames = frames_total;
      tracer.set_active(options.trace);
      if (options.trace) slice_span.emplace(tracer, "bench", "slice");
    } else if (in_window && (t >= slice_start + kSliceSeconds ||
                             t >= window_end)) {
      finish_slice(t);
      slice_span.reset();
      ++slice_index;
      slice_start = t;
      slice_frames = frames_total;
      if (t >= window_end) {
        in_window = false;
        tracer.set_active(false);
      } else {
        const bool traced = options.trace && slice_index % 2 == 0;
        tracer.set_active(traced);
        if (traced) slice_span.emplace(tracer, "bench", "slice");
      }
    }
    const bool opening = t < window_end;
    if (!opening && open.empty() && closing.empty()) break;
    if (t > give_up) {
      report.check(false, "fleet: streams still open 60 s after the window");
      for (std::size_t i = 0; i < open.size(); ++i) {
        report.stream_finished(false);
      }
      break;
    }

    bool progressed = false;
    while (opening && open.size() < open_target()) {
      serve::OpenResult result;
      {
        Tracer::Span span(tracer, "serve", "open");
        result = engine.try_open_stream(serve::StreamConfig{});
      }
      if (!result.ok()) {
        ++report.open_refusals[serve::to_string(result.status)];
        break;
      }
      FleetStream s;
      s.handle = result.handle;
      s.seq = next_seq++;
      if (repeat) {
        s.rank = pool->next_rank();
        s.pooled = &pool->utterance(s.rank);
      } else {
        Tracer::Span span(tracer, "bench", "synth", s.seq);
        s.rank = s.seq;
        s.own_wave = synth_utterance(options.seed, s.seq, 6, 10);
      }
      s.measured = in_window;
      report.stream_started();
      by_handle[s.handle.id] = open.size();
      open.push_back(std::move(s));
      progressed = true;
    }

    for (FleetStream& s : open) {
      const std::vector<float>& wave = s.wave();
      const std::size_t chunks =
          (wave.size() + kChunkSamples - 1) / kChunkSamples;
      while (s.next_chunk < chunks) {
        const std::size_t off = s.next_chunk * kChunkSamples;
        const std::size_t n = std::min(kChunkSamples, wave.size() - off);
        bool accepted = false;
        {
          Tracer::Span span(tracer, "serve", "submit", s.seq);
          accepted = engine.submit_audio(
              s.handle, std::span<const float>(wave.data() + off, n));
        }
        ++report.submits;
        if (!accepted) {
          ++report.submit_refusals;
          break;
        }
        s.timeline.chunk_due_s.push_back(now_s());
        s.timeline.chunk_rows.push_back(rows_ready(off + n, false));
        ++s.next_chunk;
        progressed = true;
      }
      if (s.next_chunk == chunks && !s.finish_sent) {
        bool accepted = false;
        {
          Tracer::Span span(tracer, "serve", "finish", s.seq);
          accepted = engine.finish_stream(s.handle);
        }
        if (accepted) {
          s.finish_sent = true;
          s.timeline.finish_due_s = now_s();
          progressed = true;
        } else {
          ++report.submit_refusals;
        }
      }
    }

    std::vector<serve::RecognizerEvent> events;
    {
      Tracer::Span span(tracer, "serve", "poll");
      engine.poll_events(events);
    }
    const double arrived = now_s();
    for (serve::RecognizerEvent& e : events) {
      const auto it = by_handle.find(e.stream.id);
      if (it == by_handle.end()) continue;
      FleetStream& s = open[it->second];
      if (e.event.frames > s.frames_seen) {
        frames_total += e.event.frames - s.frames_seen;
        s.frames_seen = e.event.frames;
      }
      if (e.event.is_final) s.final_seen = true;
      s.timeline.event_s.push_back(arrived);
      s.timeline.events.push_back(std::move(e.event));
      progressed = true;
    }

    for (std::size_t i = 0; i < open.size();) {
      FleetStream& s = open[i];
      bool done = false;
      if (s.final_seen) {
        Tracer::Span span(tracer, "serve", "done", s.seq);
        done = engine.stream_done(s.handle);
      }
      if (!done) {
        ++i;
        continue;
      }
      Matrix logits;
      {
        Tracer::Span span(tracer, "serve", "logits", s.seq);
        logits = engine.stream_logits(s.handle);
      }
      closing.push_back(s.handle);
      {
        Tracer::Span span(tracer, "bench", "check", s.seq);
        const std::vector<speech::StreamEvent>& ev = s.timeline.events;
        std::size_t finals = 0;
        for (const speech::StreamEvent& e : ev) finals += e.is_final ? 1 : 0;
        const bool one_final = finals == 1 && ev.back().is_final;
        const bool rows_ok =
            logits.rows() == extractor.frame_count(s.wave().size());
        std::vector<std::uint16_t> decoded;
        {
          Tracer::Span decode(tracer, "speech", "greedy_decode", s.seq);
          decoded = speech::greedy_decode(logits);
        }
        const bool decode_ok = concat_stable(ev) == decoded;
        bool repeat_ok = true;
        if (repeat) {
          const auto first = first_logits.find(s.rank);
          if (first == first_logits.end()) {
            first_logits.emplace(s.rank, logits);
          } else {
            repeat_ok = bit_equal(first->second, logits);
          }
        }
        const std::string tag = "stream " + std::to_string(s.seq);
        report.check(one_final, tag + ": not exactly one FINAL");
        report.check(rows_ok, tag + ": logit rows != MFCC frames");
        report.check(decode_ok, tag + ": stable deltas != greedy_decode");
        if (repeat) {
          report.check(repeat_ok, tag + ": repeat logits differ from rank " +
                                      std::to_string(s.rank) +
                                      "'s first occurrence");
        }
        const bool new_case =
            repeat ? std::none_of(ref_cases.begin(), ref_cases.end(),
                                  [&](const RefCase& c) {
                                    return c.wave == s.pooled;
                                  })
                   : true;
        if (ref_cases.size() < kReferenceChecks && new_case) {
          ref_cases.push_back({s.pooled,
                               repeat ? std::vector<float>{} : s.own_wave,
                               logits});
        }
        if (probe_waves.size() < 4) probe_waves.push_back(s.wave());
        report.stream_finished(one_final && rows_ok && decode_ok &&
                               repeat_ok);
      }
      if (s.measured) samples.add(s.timeline);
      by_handle.erase(s.handle.id);
      if (i + 1 != open.size()) {
        open[i] = std::move(open.back());
        by_handle[open[i].handle.id] = i;
      }
      open.pop_back();
      progressed = true;
    }

    for (std::size_t i = 0; i < closing.size();) {
      bool closed = false;
      {
        Tracer::Span span(tracer, "serve", "close");
        closed = engine.close_stream(closing[i]);
      }
      if (closed) {
        closing[i] = closing.back();
        closing.pop_back();
      } else {
        ++report.submit_refusals;
        ++i;
      }
    }

    if (!progressed) {
      Tracer::Span span(tracer, "serve", "wait");
      if (engine.wait_for_events(std::chrono::microseconds(1000))) ++wakeups;
    }
  }
  slice_span.reset();
  tracer.set_active(false);
  // net and obs are measured on no gated workload's window (see README):
  // the traced fleet-unique run measures them with a short wire probe.
  if (options.trace && !repeat) {
    run_wire_probe(engine, options.seed, tracer, report);
  }
  engine.stop();

  // xrt: audio seconds covered by events per wall second, over the
  // untraced slices (all slices in an untraced run).
  const double xrt = quantile(slice_xrt[1], 0.5);
  report.e2e("xrt", xrt, "audio_s/s");
  report_latency(report, samples);
  report_engine_stats(engine, report);

  for (RefCase& c : ref_cases) {
    const std::vector<float>& wave = c.wave != nullptr ? *c.wave : c.own;
    const Matrix reference = deployment.pruned.model->forward(
        batch_features(wave));
    const LogitCheck check =
        check_logits(c.logits, reference, kInt8Act8LogitBound);
    report.check(check.ok, "reference logits: " + check.message);
  }
  report.check(ref_cases.size() == kReferenceChecks,
               "fewer streams than reference checks completed");

  if (options.trace) {
    const double traced = quantile(slice_xrt[0], 0.5);
    report_trace(tracer, traced, xrt, true, report, options.trace_path);
    report_serve_calls(tracer, wakeups, report);
    const serve::GlobalStats global = engine.stats();
    const Matrix features = batch_features(probe_waves.front());
    probe_compiler(deployment.pruned, serving_options(),
                   static_cast<std::size_t>(
                       global.merged.fused_width.mean_us() + 0.5),
                   features, report);
    probe_speech(probe_waves, ref_cases.front().logits, report);
  }
  report.e2e("peak_rss_mb", peak_rss_mb(), "MiB");
  return report;
}

}  // namespace servebench
