// Overload benchmark: tail lag and deadline-miss rate per scheduler
// policy when offered load exceeds engine capacity.
//
// The serving question RTMobile's "beyond real time" claim turns into: when
// more audio arrives per second than the engine can process, which streams fall
// behind and by how much? This bench drives a one-shard, caller-stepped
// ShardedEngine with synthetic open-loop arrivals — every stream pushes 10 ms
// audio chunks on its own clock, independent of how fast the engine drains them
// — at 1x to 4x of measured capacity, under each scheduler/overload policy, and
// reports the per-step worst-stream lag distribution (p50/p95/p99) plus the
// deadline-miss rate and shed-frame counts.
//
// Time is virtual (runtime::ManualClock): each round (queued audio ingested,
// then one engine step) advances the clock by its measured wall time, and idle
// gaps jump straight to the next arrival. Compute cost is real, but arrival
// pacing is exact and idle time costs nothing, so a multi-minute overload
// scenario runs in seconds of wall time. Offered load is load_factor x
// capacity: the stream count is capped (--max-streams) and each stream's
// arrival clock is sped up to make up the remainder, so "2x" always means twice
// the audio per second the engine sustains.
//
// Expected shape (the acceptance evidence for deadline-aware
// scheduling): round-robin under overload lets lag grow without bound
// for every stream and misses almost every deadline; EDF/lag-aware with
// shedding hold p99 lag near the deadline budget and keep the miss rate
// bounded, trading dropped frames for bounded staleness; lag-aware with
// rejection sacrifices whole streams to keep the survivors real-time.
// The sweep is written to overload.json (a CI artifact).
#include <algorithm>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "compiler/gru_executor.hpp"
#include "hw/thread_pool.hpp"
#include "hw/timer.hpp"
#include "rnn/model.hpp"
#include "rnn/param_set.hpp"
#include "runtime/clock.hpp"
#include "runtime/scheduler.hpp"
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
                       double keep_fraction) {
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
  return setup;
}

/// A one-shard engine the bench steps itself (never started): every
/// round runs on this thread, against the virtual clock.
std::unique_ptr<serve::ShardedEngine> make_engine(
    const BenchSetup& setup, runtime::EngineConfig engine_config) {
  serve::ShardConfig config;
  config.shards = 1;
  config.threads_per_shard = setup.options.threads;
  // A round serves max_batch frames of the offered load, so about
  // max_batch x load-factor chunks arrive between two rounds; the ring
  // holds far more, so no submission is refused.
  config.queue_capacity = 8192;
  config.engine = engine_config;
  return std::make_unique<serve::ShardedEngine>(*setup.model, setup.masks,
                                                setup.options, config);
}

std::vector<float> make_waveform(double seconds, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> wave(static_cast<std::size_t>(seconds * 16000.0));
  for (float& s : wave) s = 0.1F * rng.normal();
  return wave;
}

/// One scheduler/overload pairing under test.
struct PolicyScenario {
  const char* name;
  runtime::SchedulerPolicy scheduler;
  runtime::OverloadPolicy overload;
};

constexpr PolicyScenario kScenarios[] = {
    {"round-robin", runtime::SchedulerPolicy::kRoundRobin,
     runtime::OverloadPolicy::kNone},
    {"edf+shed", runtime::SchedulerPolicy::kEarliestDeadlineFirst,
     runtime::OverloadPolicy::kShed},
    {"lag-aware+shed", runtime::SchedulerPolicy::kLagAware,
     runtime::OverloadPolicy::kShed},
    {"lag-aware+reject", runtime::SchedulerPolicy::kLagAware,
     runtime::OverloadPolicy::kReject},
};

/// Closed-loop calibration: how many 1x real-time streams the engine
/// sustains — audio seconds a saturated batch serves per wall second of
/// rounds, front end (MFCC at ingest) included, the same cost the
/// virtual clock charges per round. Calibrate with the same stream count
/// the overload runs use so the batching efficiency matches.
double measure_capacity(const BenchSetup& setup, std::size_t streams,
                        double seconds) {
  const auto engine = make_engine(setup, runtime::EngineConfig{});
  serve::StreamConfig config;
  config.decode.mode = speech::DecodeMode::kNone;
  for (std::size_t s = 0; s < streams; ++s) {
    const serve::StreamHandle h = engine->open_stream(config);
    const std::vector<float> wave = make_waveform(seconds, 4000 + s);
    (void)engine->submit_audio(h, wave);
    (void)engine->finish_stream(h);
  }
  WallTimer rounds;
  engine->drain();
  return static_cast<double>(streams) * seconds / (rounds.elapsed_us() * 1e-6);
}

struct OverloadResult {
  runtime::RuntimeStats stats;
  std::size_t degraded_events = 0;
  std::size_t rejected_events = 0;
};

/// Open-loop overload run: `streams` concurrent streams, each pushing
/// 10 ms chunks at `speedup`x real time (so offered load =
/// streams * speedup in 1x-stream units) for `window_seconds` of
/// virtual time, against the virtual clock. Audio is generated chunk by
/// chunk, so the offered load — not stream buffers — is what the run
/// costs. The window is the sustained-overload epoch: it must dominate
/// the deadline budget for scheduling policy to matter.
OverloadResult run_overload(const BenchSetup& setup,
                            const PolicyScenario& scenario,
                            std::size_t streams, double speedup,
                            double window_seconds, double budget_seconds,
                            std::size_t max_batch) {
  runtime::ManualClock clock;
  runtime::EngineConfig engine_config;
  engine_config.max_batch = max_batch;
  engine_config.scheduler = scenario.scheduler;
  engine_config.overload = scenario.overload;
  engine_config.clock = &clock;
  // Bounded-memory recorders: an overload soak records one lag sample
  // per 10 ms step — the capped mode is what keeps hours-long runs flat.
  engine_config.stats_sample_cap = 8192;
  const auto engine = make_engine(setup, engine_config);

  serve::StreamConfig stream_config;
  stream_config.decode.mode = speech::DecodeMode::kNone;
  stream_config.deadline.budget_seconds = budget_seconds;

  constexpr std::size_t kChunkSamples = 160;  // 10 ms at 16 kHz
  const double chunk_interval_us = 10'000.0 / speedup;
  // Every stream pushes for the whole window; the per-stream audio is
  // window * speedup seconds, delivered one chunk at a time.
  const std::size_t chunks_per_stream = static_cast<std::size_t>(
      window_seconds * 1e6 / chunk_interval_us);
  struct StreamState {
    serve::StreamHandle handle;
    Rng rng{0};
    std::size_t chunks_left = 0;
    double next_arrival_us = 0.0;
  };
  std::vector<StreamState> arrivals(streams);
  for (std::size_t s = 0; s < streams; ++s) {
    arrivals[s].handle = engine->open_stream(stream_config);
    arrivals[s].rng = Rng(7000 + s);
    arrivals[s].chunks_left = chunks_per_stream;
    // Stagger starts across one chunk interval so arrivals interleave
    // instead of pulsing in lockstep.
    arrivals[s].next_arrival_us =
        chunk_interval_us * static_cast<double>(s) /
        static_cast<double>(streams);
  }

  OverloadResult result;
  std::vector<float> chunk(kChunkSamples);
  std::vector<serve::RecognizerEvent> events;
  const auto count_control_events = [&result, &events, &engine] {
    events.clear();
    engine->poll_events(events);
    for (const serve::RecognizerEvent& event : events) {
      if (event.event.kind == speech::StreamEventKind::kDegraded) {
        ++result.degraded_events;
      } else if (event.event.kind == speech::StreamEventKind::kRejected) {
        ++result.rejected_events;
      }
    }
  };
  std::size_t rounds = 0;
  while (true) {
    bool arrivals_left = false;
    double next_due = std::numeric_limits<double>::infinity();
    for (StreamState& st : arrivals) {
      while (st.chunks_left > 0 && st.next_arrival_us <= clock.now_us()) {
        for (float& sample : chunk) sample = 0.1F * st.rng.normal();
        (void)engine->submit_audio(st.handle, chunk);
        st.next_arrival_us += chunk_interval_us;
        if (--st.chunks_left == 0) {
          (void)engine->finish_stream(st.handle);
        }
      }
      if (st.chunks_left > 0) {
        arrivals_left = true;
        next_due = std::min(next_due, st.next_arrival_us);
      }
    }

    WallTimer step_timer;
    const std::size_t advanced = engine->pump_shard(0);
    if (advanced > 0) {
      clock.advance_us(step_timer.elapsed_us());
    } else if (arrivals_left) {
      clock.set_us(std::max(clock.now_us(), next_due));  // idle: skip ahead
    } else {
      break;  // no audio left anywhere: the workload is served
    }

    if (++rounds % 64 == 0) count_control_events();
  }
  count_control_events();
  result.stats = engine->shard_stats(0);
  return result;
}

}  // namespace
}  // namespace rtmobile

int main(int argc, char** argv) {
  using namespace rtmobile;

  CliParser cli;
  cli.add_flag("hidden", "256", "GRU hidden size of the served model");
  cli.add_flag("threads", std::to_string(ThreadPool::default_thread_count()),
               "thread pool size");
  cli.add_flag("seconds", "2.5",
               "sustained-overload window (virtual seconds every stream "
               "keeps pushing audio)");
  cli.add_flag("budget", "0.25", "per-stream deadline budget (seconds)");
  cli.add_flag("max-streams", "96",
               "cap on concurrent streams (excess load is applied by "
               "accelerating each stream's arrival clock)");
  cli.add_flag("max-batch", "32", "engine max_batch per scheduling round");
  cli.add_flag("keep", "0.25", "BSP column keep fraction");
  cli.add_switch("quick",
                 "small model + short audio (CI smoke run; overrides "
                 "--hidden, --seconds, --budget and --max-streams)");
  try {
    cli.parse(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n%s", e.what(),
                 cli.help("bench_overload").c_str());
    return 1;
  }

  const bool quick = cli.get_switch("quick");
  const std::size_t hidden =
      quick ? 96 : static_cast<std::size_t>(cli.get_int("hidden"));
  const double window = quick ? 0.4 : cli.get_double("seconds");
  const double budget = quick ? 0.08 : cli.get_double("budget");
  const std::size_t max_streams =
      quick ? 32 : static_cast<std::size_t>(cli.get_int("max-streams"));
  const std::size_t threads =
      static_cast<std::size_t>(cli.get_int("threads"));
  const std::size_t max_batch =
      static_cast<std::size_t>(cli.get_int("max-batch"));
  const double keep = cli.get_double("keep");

  BenchSetup setup = build_model(hidden, threads, keep);

  // Capacity: audio seconds a saturated closed-loop run serves per wall
  // second = how many 1x streams the engine can serve in real time.
  const double capacity = measure_capacity(
      setup, /*streams=*/max_batch, /*seconds=*/quick ? 0.5 : 2.0);
  std::printf(
      "Overload scheduling: hidden=%zu threads=%zu window=%.1fs "
      "budget=%.0fms capacity~%.1f streams at 1x%s\n\n",
      hidden, threads, window, budget * 1e3, capacity,
      quick ? " (quick)" : "");

  JsonReport report;
  Table table({"load", "policy", "streams", "xRT/strm", "frames", "shed",
               "rejected", "p50 lag ms", "p95 lag ms", "p99 lag ms",
               "miss %"});
  for (const double load : {1.0, 2.0, 4.0}) {
    const double offered = std::max(1.0, load * capacity);
    const std::size_t streams = std::min(
        max_streams, static_cast<std::size_t>(std::max(1.0, offered)));
    const double speedup = offered / static_cast<double>(streams);
    for (const PolicyScenario& scenario : kScenarios) {
      const OverloadResult result = run_overload(
          setup, scenario, streams, speedup, window, budget, max_batch);
      const runtime::RuntimeStats& stats = result.stats;
      table.add_row(
          {format_double(load, 0) + "x", scenario.name,
           std::to_string(streams), format_double(speedup, 2),
           std::to_string(stats.frames_processed),
           std::to_string(stats.shed_frames),
           std::to_string(stats.rejected_streams),
           format_double(stats.lag.p50_us() * 1e-3, 1),
           format_double(stats.lag.p95_us() * 1e-3, 1),
           format_double(stats.lag.p99_us() * 1e-3, 1),
           format_double(stats.miss_rate() * 100.0, 1)});

      JsonRecord record;
      record.set("section", "overload");
      record.set("load_factor", load);
      record.set("policy", scenario.name);
      record.set("scheduler", to_string(scenario.scheduler));
      record.set("overload", to_string(scenario.overload));
      record.set("streams", static_cast<std::int64_t>(streams));
      record.set("arrival_speedup", speedup);
      record.set("budget_seconds", budget);
      record.set("window_seconds", window);
      record.set("capacity_streams", capacity);
      record.set("frames",
                 static_cast<std::int64_t>(stats.frames_processed));
      record.set("shed_frames",
                 static_cast<std::int64_t>(stats.shed_frames));
      record.set("rejected_streams",
                 static_cast<std::int64_t>(stats.rejected_streams));
      record.set("degraded_events",
                 static_cast<std::int64_t>(result.degraded_events));
      record.set("p50_lag_ms", stats.lag.p50_us() * 1e-3);
      record.set("p95_lag_ms", stats.lag.p95_us() * 1e-3);
      record.set("p99_lag_ms", stats.lag.p99_us() * 1e-3);
      record.set("miss_rate", stats.miss_rate());
      record.set("mean_batch", stats.mean_batch());
      report.add(std::move(record));
    }
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "lag = per-step worst head-frame wait behind the arrival clock; "
      "miss %% = frames served later than the %.0f ms budget. Open-loop "
      "arrivals at load x capacity (xRT/strm is each stream's arrival "
      "speedup when the stream count is capped). Round-robin lag grows "
      "with overload; edf/lag-aware + shed bound p99 lag near the "
      "budget by dropping overdue frames (kDegraded events); "
      "lag-aware + reject drops whole streams instead so survivors stay "
      "real-time.\n",
      budget * 1e3);

  report.write_file("overload.json");
  std::printf("wrote overload.json (%zu records)\n", report.size());
  return 0;
}
