// Real TCP recognition server: the epoll front (net::RecognizerServer)
// over a serve::ShardedEngine served either way — `local` is one
// caller-driven shard the server loop steps itself (drive mode),
// `sharded` is a started fleet whose pump threads serve.
//
//   tcp_server --port 7070 --backend local
//   tcp_server --port 7070 --backend sharded --shards 2
//
// Clients speak the length-prefixed wire protocol (see
// net/wire_protocol.hpp); examples/load_client.cpp is the matching load
// generator. With --max-connections N the server exits once N
// connections have been accepted and fully drained — the CI smoke mode,
// so a scripted client run bounds the server's lifetime without signals.
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "compiler/gru_executor.hpp"
#include "net/recognizer_server.hpp"
#include "obs/telemetry.hpp"
#include "rnn/model.hpp"
#include "rnn/param_set.hpp"
#include "serve/sharded_engine.hpp"
#include "sparse/block_mask.hpp"
#include "train/projection.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

namespace rtmobile {
namespace {

struct Backend {
  std::unique_ptr<SpeechModel> model;
  std::unique_ptr<serve::ShardedEngine> engine;
};

/// An untrained BSP-pruned model: this example demonstrates transport,
/// not accuracy (same policy as streaming_server.cpp).
Backend build_backend(const std::string& kind, std::size_t hidden,
                      std::size_t shards, obs::Telemetry* telemetry) {
  Backend backend;
  Rng rng(2024);
  backend.model = std::make_unique<SpeechModel>(ModelConfig::scaled(hidden));
  backend.model->init(rng);
  std::map<std::string, BlockMask> masks;
  ParamSet params;
  backend.model->register_params(params);
  for (const std::string& name : backend.model->weight_names()) {
    Matrix& w = params.matrix(name);
    BlockMask mask = block_column_mask(w, 8, 4, 0.25);
    mask.apply(w);
    masks.emplace(name, std::move(mask));
  }
  CompilerOptions options;
  options.format = SparseFormat::kBspc;

  serve::ShardConfig config;
  config.shards = kind == "sharded" ? shards : 1;
  config.engine.telemetry = telemetry;
  backend.engine = std::make_unique<serve::ShardedEngine>(*backend.model, masks,
                                                          options, config);
  // Sharded: pump threads serve and the epoll loop only waits. Local:
  // never started, so the epoll loop steps the one shard itself.
  if (kind == "sharded") backend.engine->start();
  return backend;
}

}  // namespace
}  // namespace rtmobile

int main(int argc, char** argv) {
  using namespace rtmobile;

  CliParser cli;
  cli.add_flag("port", "0", "TCP port to bind (0 = ephemeral, printed)");
  cli.add_flag("backend", "local",
               "how the engine is served: local (one shard the server "
               "loop steps) | sharded (started pump threads)");
  cli.add_flag("shards", "2", "engine replicas (backend = sharded)");
  cli.add_flag("hidden", "64", "GRU hidden size of the served model");
  cli.add_flag("max-connections", "0",
               "exit once this many connections were accepted and "
               "drained (0 = serve forever)");
  cli.add_flag("metrics-port", "-1",
               "HTTP port serving GET /metrics and /metrics.json "
               "(0 = ephemeral, printed; -1 = observability off)");
  try {
    cli.parse(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n%s", e.what(), cli.help("tcp_server").c_str());
    return 1;
  }
  const std::string backend_kind = cli.get_string("backend");
  const std::size_t hidden = static_cast<std::size_t>(cli.get_int("hidden"));
  const std::size_t shards = static_cast<std::size_t>(cli.get_int("shards"));
  const std::uint64_t max_connections =
      static_cast<std::uint64_t>(cli.get_int("max-connections"));

  const std::int64_t metrics_port = cli.get_int("metrics-port");

  // Must outlive the backend AND the server (both hold pointers into it).
  std::unique_ptr<obs::Telemetry> telemetry;
  if (metrics_port >= 0) telemetry = std::make_unique<obs::Telemetry>();

  Backend backend =
      build_backend(backend_kind, hidden, shards, telemetry.get());
  net::ServerConfig config;
  config.port = static_cast<std::uint16_t>(cli.get_int("port"));
  config.drive_recognizer = !backend.engine->running();
  config.telemetry = telemetry.get();
  if (metrics_port >= 0) {
    config.metrics_port = static_cast<std::uint16_t>(metrics_port);
  }
  net::RecognizerServer server(*backend.engine, config);
  server.start();
  std::printf("tcp_server: backend=%s hidden=%zu listening on 127.0.0.1:%u\n",
              backend_kind.c_str(), hidden, server.port());
  if (telemetry != nullptr) {
    std::printf("tcp_server: metrics on http://127.0.0.1:%u/metrics\n",
                server.metrics_port());
  }
  std::fflush(stdout);

  for (;;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    if (max_connections > 0 &&
        server.accepted_total() >= max_connections &&
        server.connection_count() == 0) {
      break;
    }
  }
  server.stop();
  backend.engine->stop();

  const serve::GlobalStats stats = backend.engine->stats();
  std::printf(
      "tcp_server: served %llu connections, %zu frames in %zu steps "
      "(%.0f frames/s)\n",
      static_cast<unsigned long long>(server.accepted_total()),
      stats.merged.frames_processed, stats.merged.steps,
      stats.merged.frames_per_second());
  return 0;
}
