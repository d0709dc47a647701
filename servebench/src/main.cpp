// servebench: one command for the serving benchmark.
//
//   servebench --workload <live-wire|fleet-unique|fleet-repeat|paper-single>
//              --seed <n> --seconds <s> --trace <0|1> [--trace-out <path>]
//
// Human-readable accounting goes to stdout first; the last stdout line
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// Untraced runs report the end-to-end metrics, traced runs the
// per-layer ones. A watchdog ends a stalled run with exit code 3.
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>

#include "common.hpp"

namespace servebench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The metrics every run prints, in BENCHMARK.json's order.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"xrt", "audio_s/s"},
    {"first_partial_p50_ms", "ms"},
    {"first_partial_tail_ms", "ms"},
    {"partial_lag_p50_ms", "ms"},
    {"partial_lag_tail_ms", "ms"},
    {"final_p50_ms", "ms"},
    {"final_tail_ms", "ms"},
    {"frame_us_p50", "us"},
    {"frame_us_tail", "us"},
    {"weight_bytes", "bytes"},
    {"peak_rss_mb", "MiB"},
};

// Layers a workload does not exercise report 0 (see README).
constexpr MetricSpec kPerLayer[] = {
    {"net.open_rtt_ms", "ms"},
    {"net.audio_send_us", "us"},
    {"net.ingress_pause_episodes", "count"},
    {"net.bytes_in", "bytes"},
    {"net.bytes_out", "bytes"},
    {"obs.scrape_ms", "ms"},
    {"generator.late_ms_p99", "ms"},
    {"generator.late_ops", "count"},
    {"serve.open_us", "us"},
    {"serve.submit_us", "us"},
    {"serve.submits", "count"},
    {"serve.submit_refusals", "count"},
    {"serve.poll_us", "us"},
    {"serve.wait_wakeups", "count"},
    {"serve.shard_frame_skew", "ratio"},
    {"runtime.steps", "count"},
    {"runtime.frames", "count"},
    {"runtime.batch_width_mean", "streams"},
    {"runtime.step_us_p50", "us"},
    {"runtime.step_us_tail", "us"},
    {"runtime.busy_share", "ratio"},
    {"runtime.fused_steps", "count"},
    {"runtime.fallback_steps", "count"},
    {"runtime.lag_ms_p99", "ms"},
    {"cache.hits", "count"},
    {"cache.misses", "count"},
    {"cache.hit_ratio", "ratio"},
    {"cache.skipped_steps", "count"},
    {"cache.evictions", "count"},
    {"cache.resident_bytes", "bytes"},
    {"compiler.infer_us_per_frame", "us"},
    {"compiler.step_batch_us", "us"},
    {"compiler.step_batch_width", "streams"},
    {"kernel.macs_per_frame", "count"},
    {"kernel.weight_bytes_per_step", "bytes"},
    {"kernel.gmacs_per_s", "GMAC/s"},
    {"kernel.gbytes_per_s", "GB/s"},
    {"speech.mfcc_us_per_frame", "us"},
    {"speech.decode_us_per_row", "us"},
    {"self.bench_ms", "ms"},
    {"self.serve_ms", "ms"},
    {"self.net_ms", "ms"},
    {"self.obs_ms", "ms"},
    {"self.compiler_ms", "ms"},
    {"self.speech_ms", "ms"},
    {"trace.spans", "count"},
    {"trace.overhead_pct", "%"},
};

/// Kills the process when a run stalls, so a hang fails instead of
/// blocking whoever waits for the result.
class Watchdog {
 public:
  explicit Watchdog(std::chrono::seconds limit)
      : thread_([this, limit] {
          std::unique_lock<std::mutex> lock(mutex_);
          if (cv_.wait_for(lock, limit, [this] { return done_; })) return;
          const std::size_t started = g_streams_started.load();
          const std::size_t finished = g_streams_finished.load();
          std::fprintf(stderr,
                       "watchdog: run stalled after %lld s: streams "
                       "attempted=%zu finished=%zu failed=%zu\n",
                       static_cast<long long>(limit.count()), started,
                       finished, started - finished);
          std::fflush(stderr);
          std::_Exit(3);
        }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;  // last: starts after the members it uses
};

int usage(const char* what) {
  std::fprintf(stderr,
               "servebench: %s\nusage: servebench --workload "
               "<live-wire|fleet-unique|fleet-repeat|paper-single> --seed "
               "<n> --seconds <s> --trace <0|1> [--trace-out <path>]\n",
               what);
  return 2;
}

const Metric* find(const std::vector<Metric>& metrics, const char* name) {
  for (const Metric& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  using namespace servebench;
  RunOptions options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        options.trace = std::stoi(value) != 0;
      } else if (flag == "--trace-out") {
        options.trace_path = value;
      } else {
        return usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + flag).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");
  if (!(options.seconds > 0.0 && options.seconds <= 60.0)) {
    return usage("--seconds must be in (0, 60]");
  }

  const Watchdog watchdog(std::chrono::seconds(170));
  RunReport report;
  try {
    if (options.workload == "live-wire") {
      report = run_live_wire(options);
    } else if (options.workload == "fleet-unique") {
      report = run_fleet(options, false);
    } else if (options.workload == "fleet-repeat") {
      report = run_fleet(options, true);
    } else if (options.workload == "paper-single") {
      report = run_paper_single(options);
    } else {
      return usage(("unknown workload " + options.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "servebench: %s failed: %s\n",
                 options.workload.c_str(), e.what());
    return 1;
  }

  std::printf("accounting: workload=%s seed=%llu trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.trace ? 1 : 0);
  std::printf("  streams attempted=%zu completed=%zu failed=%zu\n",
              report.attempted, report.completed, report.failed);
  std::printf("  open refusals:");
  if (report.open_refusals.empty()) std::printf(" none");
  for (const auto& [status, count] : report.open_refusals) {
    std::printf(" %s=%zu", status.c_str(), count);
  }
  std::printf("\n  submits=%zu submit_refusals=%zu\n", report.submits,
              report.submit_refusals);
  std::printf("  checks run=%zu failed=%zu\n", report.checks_run,
              report.checks_failed);
  for (const std::string& failure : report.check_failures) {
    std::printf("  check failed: %s\n", failure.c_str());
  }
  for (const Metric& m : report.end_to_end) {
    std::printf("  %-28s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }

  for (const Metric& m : report.per_layer) {
    bool known = false;
    for (const MetricSpec& spec : kPerLayer) known = known || m.name == spec.name;
    if (!known) {
      std::fprintf(stderr, "servebench: unlisted per-layer metric %s\n",
                   m.name.c_str());
      return 1;
    }
  }
  if (report.attempted == 0) {
    std::fprintf(stderr, "servebench: %s attempted no streams\n",
                 options.workload.c_str());
    return 1;
  }

  // The result line: end-to-end metrics untraced, per-layer traced.
  std::string json;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                report.checks_failed == 0 ? "true" : "false", report.attempted,
                report.failed);
  json += buf;
  bool first = true;
  const auto emit = [&](const char* name, double value, const char* unit) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, "
                  "\"unit\": \"%s\"}", first ? "" : ", ", name, value, unit);
    json += buf;
    first = false;
  };
  if (!options.trace) {
    for (const MetricSpec& spec : kEndToEnd) {
      const Metric* m = find(report.end_to_end, spec.name);
      if (m == nullptr) {
        std::fprintf(stderr, "servebench: %s did not measure %s\n",
                     options.workload.c_str(), spec.name);
        return 1;
      }
      emit(spec.name, m->value, spec.unit);
    }
  } else {
    for (const MetricSpec& spec : kPerLayer) {
      const Metric* m = find(report.per_layer, spec.name);
      emit(spec.name, m != nullptr ? m->value : 0.0, spec.unit);
    }
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
