// Network front benchmark: what the epoll TCP layer adds on top of the
// recognizer it fronts, measured end to end over loopback sockets.
//
// Three questions, each against both ways of serving a ShardedEngine (a
// caller-driven one-shard engine the server loop steps in drive mode,
// and a started multi-shard engine whose pumps serve):
//
//  - wire-to-first-partial latency: the clock starts when a client
//    writes its first audio byte and stops when the first hypothesis
//    event arrives back — server compute plus both socket hops plus
//    every buffer in between. Reported p50/p99 across repeated rounds
//    of concurrent open-loop streams.
//  - connections-per-core: concurrent connections push audio as fast as
//    TCP accepts it; aggregate real-time throughput (audio seconds
//    served per wall second) divided by compute cores = how many
//    1x real-time streams each core sustains through the wire.
//  - OPEN-time rejection at >2x capacity (sharded backend, the
//    production pump-mode deployment): budget-free flood streams dump
//    more than twice what capacity can serve in the window, then probe
//    connections carrying a tight deadline budget open mid-backlog and
//    must be refused with the typed kRejectedOverBudget — admission
//    control over the wire, not just in-process. (A drive-mode
//    engine drains its whole backlog inside each loop iteration, so
//    real-clock lag never spans an OPEN check; its admission path is
//    covered deterministically in test_net.cpp under a ManualClock.)
//
// Results go to net.json (a CI artifact).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "compiler/gru_executor.hpp"
#include "hw/thread_pool.hpp"
#include "net/recognizer_server.hpp"
#include "net/wire_client.hpp"
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

constexpr double kSampleRateHz = 16000.0;
constexpr std::size_t kChunkMs = 100;

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      p * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(rank, values.size() - 1)];
}

/// One served backend plus everything that keeps it alive.
struct NetBackend {
  std::string name;
  std::size_t cores = 1;  // compute cores (event-loop thread not counted)
  std::unique_ptr<SpeechModel> model;
  std::unique_ptr<serve::ShardedEngine> engine;
};

/// `shards` replicas of `threads_per_shard` cores each. A started engine
/// is served by its pumps; an unstarted one by the server loop (drive
/// mode).
NetBackend build_backend(const char* name, std::size_t hidden,
                         std::size_t shards, std::size_t threads_per_shard,
                         double keep, bool start) {
  NetBackend backend;
  backend.name = name;
  backend.cores = shards * threads_per_shard;
  Rng rng(1234);
  backend.model = std::make_unique<SpeechModel>(ModelConfig::scaled(hidden));
  backend.model->init(rng);
  std::map<std::string, BlockMask> masks;
  ParamSet params;
  backend.model->register_params(params);
  for (const std::string& weight : backend.model->weight_names()) {
    Matrix& w = params.matrix(weight);
    BlockMask mask = block_column_mask(w, 8, 4, keep);
    mask.apply(w);
    masks.emplace(weight, std::move(mask));
  }
  CompilerOptions options;
  options.format = SparseFormat::kBspc;
  serve::ShardConfig config;
  config.shards = shards;
  config.threads_per_shard = threads_per_shard;
  backend.engine = std::make_unique<serve::ShardedEngine>(*backend.model, masks,
                                                          options, config);
  if (start) backend.engine->start();
  return backend;
}

std::vector<float> make_waveform(double seconds, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> wave(static_cast<std::size_t>(seconds * kSampleRateHz));
  for (float& s : wave) s = 0.1F * rng.normal();
  return wave;
}

struct RunResult {
  std::size_t finals = 0;
  std::size_t rejected = 0;  // typed OPEN-time refusals
  std::size_t failed = 0;
  std::vector<double> first_partial_ms;
  double wall_seconds = 0.0;
};

/// One full client stream; the reader thread timestamps the first
/// partial as it arrives (same scheme as examples/load_client.cpp).
void run_stream(std::uint16_t port, double seconds, double budget,
                std::uint64_t seed, std::size_t index, RunResult& result,
                std::mutex& mutex) {
  bool got_final = false;
  bool rejected = false;
  bool failed = false;
  double first_partial_ms = -1.0;
  try {
    net::WireClient client;
    client.connect("127.0.0.1", port);
    net::OpenRequest request;
    request.deadline_budget_seconds = budget;
    request.session_key = index;
    net::WireError error = net::WireError::kProtocol;
    if (!client.open(request, &error)) {
      rejected = error == net::WireError::kRejectedOverBudget ||
                 error == net::WireError::kBackpressureOverflow;
      failed = !rejected;
    } else {
      const std::vector<float> wave = make_waveform(seconds, seed);
      const Clock::time_point first_audio = Clock::now();
      std::thread reader([&client, &got_final, &failed, &first_partial_ms,
                          first_audio] {
        try {
          for (;;) {
            const auto message = client.read_message();
            if (!message) return;
            if (message->type == net::FrameType::kError) {
              failed = true;
              return;
            }
            if (first_partial_ms < 0.0) {
              first_partial_ms = seconds_since(first_audio) * 1e3;
            }
            if (message->event.is_final) {
              got_final = true;
              return;
            }
          }
        } catch (const std::exception&) {
          failed = true;
        }
      });
      const auto chunk = static_cast<std::size_t>(
          kSampleRateHz * static_cast<double>(kChunkMs) / 1000.0);
      for (std::size_t offset = 0; offset < wave.size(); offset += chunk) {
        client.send_audio(
            {wave.data() + offset, std::min(chunk, wave.size() - offset)});
      }
      client.send_finish();
      reader.join();
      if (got_final) client.send_close();
    }
    client.disconnect();
  } catch (const std::exception&) {
    failed = true;
  }
  const std::lock_guard<std::mutex> lock(mutex);
  result.finals += got_final ? 1 : 0;
  result.rejected += rejected ? 1 : 0;
  result.failed += failed ? 1 : 0;
  if (first_partial_ms >= 0.0) {
    result.first_partial_ms.push_back(first_partial_ms);
  }
}

/// `connections` concurrent streams, each `seconds` of audio, open-loop.
RunResult run_wire_load(std::uint16_t port, std::size_t connections,
                        double seconds, double budget,
                        std::uint64_t seed_base) {
  RunResult result;
  std::mutex mutex;
  std::vector<std::thread> workers;
  workers.reserve(connections);
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < connections; ++i) {
    workers.emplace_back([port, seconds, budget, seed_base, i, &result,
                          &mutex] {
      run_stream(port, seconds, budget, seed_base + i, i, result, mutex);
    });
  }
  for (std::thread& w : workers) w.join();
  result.wall_seconds = seconds_since(start);
  return result;
}

}  // namespace
}  // namespace rtmobile

int main(int argc, char** argv) {
  using namespace rtmobile;

  CliParser cli;
  cli.add_flag("hidden", "256", "GRU hidden size of the served model");
  cli.add_flag("threads", std::to_string(ThreadPool::default_thread_count()),
               "local backend thread-pool width");
  cli.add_flag("shards", "2", "sharded backend engine replicas");
  cli.add_flag("keep", "0.25", "BSP column keep fraction");
  cli.add_flag("latency-rounds", "8",
               "rounds of the first-partial latency probe");
  cli.add_flag("latency-connections", "4",
               "concurrent streams per latency round");
  cli.add_flag("probe-seconds", "1", "audio per latency-probe stream");
  cli.add_flag("capacity-seconds", "2",
               "audio per stream in the saturation run");
  cli.add_flag("budget", "0.05",
               "deadline budget (seconds) carried by rejection probes");
  cli.add_switch("quick", "small model + short audio (CI smoke run; "
                          "overrides the size flags)");
  try {
    cli.parse(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n%s", e.what(), cli.help("bench_net").c_str());
    return 1;
  }

  const bool quick = cli.get_switch("quick");
  const std::size_t hidden =
      quick ? 96 : static_cast<std::size_t>(cli.get_int("hidden"));
  const std::size_t threads =
      static_cast<std::size_t>(cli.get_int("threads"));
  const std::size_t shards = static_cast<std::size_t>(cli.get_int("shards"));
  const double keep = cli.get_double("keep");
  const std::size_t latency_rounds =
      quick ? 2 : static_cast<std::size_t>(cli.get_int("latency-rounds"));
  const std::size_t latency_connections =
      static_cast<std::size_t>(cli.get_int("latency-connections"));
  const double probe_seconds =
      quick ? 0.25 : cli.get_double("probe-seconds");
  const double capacity_seconds =
      quick ? 0.5 : cli.get_double("capacity-seconds");
  const double budget = cli.get_double("budget");

  std::printf("Network front: hidden=%zu threads=%zu shards=%zu%s\n\n",
              hidden, threads, shards, quick ? " (quick)" : "");

  JsonReport report;
  Table table({"backend", "cores", "first-partial p50 ms",
               "first-partial p99 ms", "agg xRT", "conns/core"});

  for (const bool use_sharded : {false, true}) {
    NetBackend backend;
    if (use_sharded) {
      backend = build_backend("sharded", hidden, shards, 1, keep, true);
    } else {
      backend = build_backend("local", hidden, 1, threads, keep, false);
    }
    net::ServerConfig server_config;
    server_config.drive_recognizer = !backend.engine->running();
    net::RecognizerServer server(*backend.engine, server_config);
    server.start();

    // Warm caches and the accept path before anything is timed.
    (void)run_wire_load(server.port(), 1, 0.2, 0.0, 100);

    // Wire-to-first-partial latency under moderate concurrent load.
    std::vector<double> first_partial;
    for (std::size_t round = 0; round < latency_rounds; ++round) {
      const RunResult r =
          run_wire_load(server.port(), latency_connections, probe_seconds,
                        0.0, 1000 * (round + 1));
      first_partial.insert(first_partial.end(), r.first_partial_ms.begin(),
                           r.first_partial_ms.end());
    }
    const double p50 = percentile(first_partial, 0.50);
    const double p99 = percentile(first_partial, 0.99);

    // Saturation: enough unpaced connections to keep every core busy;
    // aggregate xRT = audio seconds served per wall second.
    const std::size_t sat_connections = std::max<std::size_t>(
        8, 2 * backend.cores);
    const RunResult sat = run_wire_load(server.port(), sat_connections,
                                        capacity_seconds, 0.0, 5000);
    const double audio_total =
        static_cast<double>(sat.finals) * capacity_seconds;
    const double aggregate_xrt =
        sat.wall_seconds > 0.0 ? audio_total / sat.wall_seconds : 0.0;
    const double conns_per_core =
        aggregate_xrt / static_cast<double>(backend.cores);

    table.add_row({backend.name, std::to_string(backend.cores),
                   format_double(p50, 2), format_double(p99, 2),
                   format_double(aggregate_xrt, 1),
                   format_double(conns_per_core, 1)});

    JsonRecord latency_record;
    latency_record.set("section", "latency");
    latency_record.set("backend", backend.name);
    latency_record.set("connections",
                       static_cast<std::int64_t>(latency_connections));
    latency_record.set("rounds",
                       static_cast<std::int64_t>(latency_rounds));
    latency_record.set("probe_seconds", probe_seconds);
    latency_record.set("samples",
                       static_cast<std::int64_t>(first_partial.size()));
    latency_record.set("first_partial_p50_ms", p50);
    latency_record.set("first_partial_p99_ms", p99);
    report.add(std::move(latency_record));

    JsonRecord capacity_record;
    capacity_record.set("section", "capacity");
    capacity_record.set("backend", backend.name);
    capacity_record.set("cores", static_cast<std::int64_t>(backend.cores));
    capacity_record.set("connections",
                        static_cast<std::int64_t>(sat_connections));
    capacity_record.set("finals", static_cast<std::int64_t>(sat.finals));
    capacity_record.set("failed", static_cast<std::int64_t>(sat.failed));
    capacity_record.set("audio_seconds", audio_total);
    capacity_record.set("wall_seconds", sat.wall_seconds);
    capacity_record.set("aggregate_xrt", aggregate_xrt);
    capacity_record.set("connections_per_core", conns_per_core);
    report.add(std::move(capacity_record));

    // OPEN-time rejection at >2x capacity (pump-mode deployment only;
    // see file comment for why drive mode cannot hold real-clock lag
    // across an OPEN check).
    if (backend.engine->running()) {
      constexpr double kLoadFactor = 2.5;
      const double window = quick ? 0.4 : 1.0;
      const std::size_t flood_streams = std::max<std::size_t>(
          4, 2 * backend.cores);
      const double flood_total = kLoadFactor *
                                 std::max(1.0, aggregate_xrt) * window;
      const double flood_seconds = std::clamp(
          flood_total / static_cast<double>(flood_streams), 1.0, 30.0);

      // Wait out the saturation run's tail (queued closes, final-event
      // flushes) first: leftover load on one shard would steer every
      // flood open to the other, and a half-flooded fleet correctly
      // keeps admitting (the router finds the shard that can still make
      // the deadline) — no rejection to demonstrate.
      for (int spin = 0; spin < 500; ++spin) {
        bool idle = server.connection_count() == 0;
        for (std::size_t s = 0;
             idle && s < backend.engine->shard_count(); ++s) {
          idle = backend.engine->load(s) == 0;
        }
        if (idle) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }

      RunResult flood_result;
      std::mutex flood_mutex;
      std::vector<std::thread> floods;
      floods.reserve(flood_streams);
      const std::uint16_t port = server.port();
      for (std::size_t i = 0; i < flood_streams; ++i) {
        floods.emplace_back([port, flood_seconds, i, &flood_result,
                             &flood_mutex] {
          run_stream(port, flood_seconds, 0.0, 9000 + i, i, flood_result,
                     flood_mutex);
        });
      }
      // Probe only once every shard's published lag exceeds the budget:
      // the router picks the least-loaded shard, so the whole fleet must
      // be behind for a refusal to be guaranteed. Bounded wait so a
      // failed flood cannot hang the bench.
      for (int spin = 0; spin < 500; ++spin) {
        double min_lag = std::numeric_limits<double>::infinity();
        for (std::size_t s = 0; s < backend.engine->shard_count(); ++s) {
          min_lag = std::min(min_lag, backend.engine->shard_lag_seconds(s));
        }
        if (min_lag > 2.0 * budget) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      std::size_t probes = 0;
      std::size_t rejected = 0;
      std::size_t admitted = 0;
      for (std::size_t i = 0; i < 8; ++i) {
        RunResult probe;
        std::mutex probe_mutex;
        run_stream(port, 0.2, budget, 9500 + i, i, probe, probe_mutex);
        ++probes;
        rejected += probe.rejected;
        admitted += probe.finals;
      }
      for (std::thread& f : floods) f.join();

      std::printf(
          "open admission (sharded, %.1fx capacity): %zu/%zu probes with "
          "a %.0f ms budget refused as kRejectedOverBudget, %zu admitted "
          "(%zu flood streams x %.1f s audio)\n\n",
          kLoadFactor, rejected, probes, budget * 1e3, admitted,
          flood_streams, flood_seconds);

      JsonRecord rejection_record;
      rejection_record.set("section", "open_rejection");
      rejection_record.set("backend", backend.name);
      rejection_record.set("load_factor", kLoadFactor);
      rejection_record.set("budget_seconds", budget);
      rejection_record.set("flood_streams",
                           static_cast<std::int64_t>(flood_streams));
      rejection_record.set("flood_seconds_each", flood_seconds);
      rejection_record.set("probes", static_cast<std::int64_t>(probes));
      rejection_record.set("rejected",
                           static_cast<std::int64_t>(rejected));
      rejection_record.set("admitted",
                           static_cast<std::int64_t>(admitted));
      rejection_record.set("flood_finals",
                           static_cast<std::int64_t>(flood_result.finals));
      report.add(std::move(rejection_record));
    }

    server.stop();
    backend.engine->stop();
  }

  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "first-partial = first audio byte written to first hypothesis event "
      "received, over loopback TCP; agg xRT = audio seconds served per "
      "wall second at saturation; conns/core = concurrent 1x real-time "
      "streams each compute core sustains through the wire.\n");

  report.write_file("net.json");
  std::printf("wrote net.json (%zu records)\n", report.size());
  return 0;
}
