// live-wire: loopback TCP at one times real time, telemetry on.
//
// One generator thread drives up to nproc connections over non-blocking
// sockets with the public wire codec (net/wire_protocol.hpp); one
// connection carries one utterance. After OPENED the utterance's 100 ms
// chunks fall due at the pace they would be spoken (open loop within the
// utterance) and latencies are timed from those due times. FINISH is due
// with the last chunk; after FINAL the client sends CLOSE, waits for the
// server to close, and opens the next utterance. /metrics is scraped
// every 500 ms. After the window every utterance is replayed in-process
// on the same deployment and its events must match the wire's.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "net/wire_protocol.hpp"
#include "serving.hpp"
#include "speech/decoder.hpp"
#include "speech/mfcc.hpp"

namespace servebench {

using namespace rtmobile;

namespace {

constexpr double kWarmupSeconds = 1.0;
constexpr double kSliceSeconds = 1.0;
constexpr double kScrapeSeconds = 0.5;
constexpr double kRetrySeconds = 0.01;
constexpr std::size_t kReferenceChecks = 2;

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    throw std::runtime_error(std::string("connect() failed: ") +
                             std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

/// Blocking GET /metrics; returns the body.
std::string scrape(std::uint16_t port) {
  const int fd = connect_loopback(port);
  const char request[] = "GET /metrics HTTP/1.0\r\n\r\n";
  std::size_t sent = 0;
  while (sent < sizeof(request) - 1) {
    const ssize_t n = ::send(fd, request + sent, sizeof(request) - 1 - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char buf[16384];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  const std::size_t body = response.find("\r\n\r\n");
  return body == std::string::npos ? std::string{} : response.substr(body + 4);
}

/// Value of an unlabeled sample in a Prometheus text body (0 if absent).
double sample_value(const std::string& body, const std::string& name) {
  std::istringstream in(body);
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, name.size() + 1, name + " ") == 0) {
      return std::stod(line.substr(name.size() + 1));
    }
  }
  return 0.0;
}

enum class Phase { kIdle, kOpening, kStreaming, kAwaitFinal, kClosing };

struct Utterance {
  std::uint64_t seq = 0;
  std::vector<float> wave;
  Timeline timeline;
  bool measured = false;
  bool failed = false;
};

struct Conn {
  int fd = -1;
  Phase phase = Phase::kIdle;
  double retry_at = 0.0;
  net::FrameDecoder decoder;
  std::vector<std::uint8_t> out;
  std::size_t out_pos = 0;
  Utterance utt;
  double connect_s = 0.0;
  double opened_s = 0.0;
  std::size_t next_chunk = 0;

  [[nodiscard]] std::size_t chunks() const {
    return (utt.wave.size() + kChunkSamples - 1) / kChunkSamples;
  }
  [[nodiscard]] double due(std::size_t k) const {
    const std::size_t end = std::min((k + 1) * kChunkSamples, utt.wave.size());
    return opened_s + static_cast<double>(end) / kSampleRateHz;
  }
};

/// Writes what the socket takes now; the rest waits for POLLOUT.
void flush(Conn& c) {
  while (c.out_pos < c.out.size()) {
    const ssize_t n = ::send(c.fd, c.out.data() + c.out_pos,
                             c.out.size() - c.out_pos, MSG_NOSIGNAL);
    if (n > 0) {
      c.out_pos += static_cast<std::size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return;
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      throw std::runtime_error("send() failed on a live connection");
    }
  }
  c.out.clear();
  c.out_pos = 0;
}

/// What driving the TCP front at one times real time produced.
struct WireDrive {
  std::vector<Utterance> done;
  std::vector<double> open_rtt_ms;
  std::vector<double> scrape_ms;
  std::vector<double> send_us;
  LatenessLog lateness;
  std::string final_scrape;  // /metrics body after the window
  double window_start = 0.0;
  double window_end = 0.0;
};

/// Drives nproc connections at one times real time against the server
/// on `port` for `warmup_s` plus `seconds`, scraping `metrics_port`, and
/// lets in-flight utterances finish. With `trace` the window alternates
/// traced and untraced 1 s slices.
WireDrive drive_wire(std::uint16_t port, std::uint16_t metrics_port,
                     std::uint64_t seed, double warmup_s, double seconds,
                     bool trace, Tracer& tracer, RunReport& report) {
  const std::size_t connections = serving_shards() + 1;  // nproc

  WireDrive out;
  LatenessLog& lateness = out.lateness;
  std::vector<double>& open_rtt_ms = out.open_rtt_ms;
  std::vector<double>& scrape_ms = out.scrape_ms;
  std::vector<double>& send_us = out.send_us;
  std::vector<Utterance>& done = out.done;
  std::vector<Conn> conns(connections);
  std::uint64_t next_seq = 0;

  const double start = now_s();
  const double window_start = start + warmup_s;
  const double window_end = window_start + seconds;
  out.window_start = window_start;
  out.window_end = window_end;
  const double give_up = window_end + 60.0;
  double next_scrape = start;
  bool in_window = false;
  std::size_t slice_index = 0;
  double slice_start = window_start;
  std::optional<Tracer::Span> slice_span;

  const auto start_utterance = [&](Conn& c, double t) {
    Tracer::Span span(tracer, "net", "open", c.utt.seq);
    c.fd = connect_loopback(port);
    const int flags = ::fcntl(c.fd, F_GETFL, 0);
    ::fcntl(c.fd, F_SETFL, flags | O_NONBLOCK);
    c.decoder = net::FrameDecoder{};
    c.out.clear();
    c.out_pos = 0;
    c.connect_s = t;
    net::append_open(c.out, net::OpenRequest{});
    flush(c);
    c.phase = Phase::kOpening;
  };

  for (;;) {
    double t = now_s();
    if (!in_window && t >= window_start && t < window_end) {
      in_window = true;
      slice_start = t;
      tracer.set_active(trace);
      if (trace) slice_span.emplace(tracer, "bench", "slice");
    } else if (in_window && (t >= slice_start + kSliceSeconds ||
                             t >= window_end)) {
      slice_span.reset();
      ++slice_index;
      slice_start = t;
      if (t >= window_end) {
        in_window = false;
        tracer.set_active(false);
      } else {
        const bool traced = trace && slice_index % 2 == 0;
        tracer.set_active(traced);
        if (traced) slice_span.emplace(tracer, "bench", "slice");
      }
    }
    const bool opening = t < window_end;
    if (t > give_up) {
      report.check(false, "live-wire: utterances still open 60 s after the "
                          "window");
      for (Conn& c : conns) {
        if (!c.utt.wave.empty()) report.stream_finished(false);
      }
      break;
    }
    bool busy = false;
    for (Conn& c : conns) {
      busy = busy || c.phase != Phase::kIdle || !c.utt.wave.empty();
    }
    if (!opening && !busy) break;

    if (t >= next_scrape) {
      Tracer::Span span(tracer, "obs", "scrape");
      const double s0 = now_s();
      (void)scrape(metrics_port);
      scrape_ms.push_back((now_s() - s0) * 1e3);
      next_scrape += kScrapeSeconds;
    }

    // Open new utterances and send whatever has fallen due.
    for (Conn& c : conns) {
      t = now_s();
      // An utterance refused at OPEN is retried even after the window.
      if (c.phase == Phase::kIdle && t >= c.retry_at &&
          (opening || !c.utt.wave.empty())) {
        if (c.utt.wave.empty()) {
          Tracer::Span span(tracer, "bench", "synth", next_seq + 1);
          c.utt = Utterance{};
          c.utt.seq = next_seq++;
          c.utt.wave = synth_utterance(seed, c.utt.seq, 4, 8);
          report.stream_started();
        }
        start_utterance(c, t);
      }
      if (c.phase != Phase::kStreaming) continue;
      while (c.next_chunk < c.chunks() && now_s() >= c.due(c.next_chunk)) {
        const std::size_t k = c.next_chunk;
        const double due = c.due(k);
        const std::size_t off = k * kChunkSamples;
        const std::size_t n = std::min(kChunkSamples, c.utt.wave.size() - off);
        const double s0 = now_s();
        {
          Tracer::Span span(tracer, "net", "audio", c.utt.seq);
          net::append_audio(c.out, std::span<const float>(
                                       c.utt.wave.data() + off, n));
          if (k + 1 == c.chunks()) net::append_finish(c.out);
          flush(c);
        }
        const double sent = now_s();
        send_us.push_back((sent - s0) * 1e6);
        lateness.record(due, s0);
        c.utt.timeline.chunk_due_s.push_back(due);
        c.utt.timeline.chunk_rows.push_back(rows_ready(off + n, false));
        ++c.next_chunk;
        if (c.next_chunk == c.chunks()) {
          c.utt.timeline.finish_due_s = due;
          c.phase = Phase::kAwaitFinal;
        }
      }
    }

    // Sleep until a socket is ready or the next chunk/scrape falls due.
    double wake = next_scrape;
    std::vector<pollfd> fds;
    std::vector<Conn*> owners;
    for (Conn& c : conns) {
      if (c.phase == Phase::kStreaming && c.next_chunk < c.chunks()) {
        wake = std::min(wake, c.due(c.next_chunk));
      }
      if (c.phase == Phase::kIdle) {
        if (opening || !c.utt.wave.empty()) wake = std::min(wake, c.retry_at);
        continue;
      }
      pollfd p{};
      p.fd = c.fd;
      p.events = static_cast<short>(POLLIN | (c.out.empty() ? 0 : POLLOUT));
      fds.push_back(p);
      owners.push_back(&c);
    }
    if (in_window) wake = std::min(wake, slice_start + kSliceSeconds);
    wake = std::min(wake, opening ? window_end : give_up);
    const double wait_s = std::max(0.0, wake - now_s());
    timespec timeout{};
    timeout.tv_sec = static_cast<time_t>(wait_s);
    timeout.tv_nsec = static_cast<long>((wait_s - static_cast<double>(
                                                      timeout.tv_sec)) *
                                        1e9);
    int ready = 0;
    {
      Tracer::Span span(tracer, "bench", "wait");
      ready = ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
    }
    if (ready <= 0) continue;
    const double arrived = now_s();
    for (std::size_t i = 0; i < fds.size(); ++i) {
      Conn& c = *owners[i];
      if ((fds[i].revents & POLLOUT) != 0) flush(c);
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Tracer::Span span(tracer, "net", "recv", c.utt.seq);
      bool eof = false;
      std::uint8_t buf[16384];
      for (;;) {
        const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
        if (n > 0) {
          c.decoder.feed(std::span<const std::uint8_t>(
              buf, static_cast<std::size_t>(n)));
        } else if (n == 0) {
          eof = true;
          break;
        } else if (errno == EINTR) {
          continue;
        } else {
          if (errno != EAGAIN && errno != EWOULDBLOCK) eof = true;
          break;
        }
      }
      net::Frame frame;
      while (c.decoder.next(frame)) {
        if (frame.type == net::FrameType::kOpened) {
          c.opened_s = arrived;
          c.next_chunk = 0;
          open_rtt_ms.push_back((arrived - c.connect_s) * 1e3);
          c.utt.measured = c.due(0) >= window_start && c.due(0) < window_end;
          c.phase = Phase::kStreaming;
        } else if (frame.type == net::FrameType::kError) {
          net::WireError error = net::WireError::kProtocol;
          std::string message;
          (void)net::decode_error(frame.payload, error, message);
          if (c.phase == Phase::kOpening &&
              (error == net::WireError::kBackpressureOverflow ||
               error == net::WireError::kRejectedOverBudget)) {
            ++report.open_refusals[net::to_string(error)];
          } else {
            c.utt.failed = true;
            report.check(false, "utterance " + std::to_string(c.utt.seq) +
                                    ": wire error " + net::to_string(error) +
                                    " " + message);
          }
        } else {
          speech::StreamEvent event;
          if (!net::decode_event(frame.payload, event)) {
            c.utt.failed = true;
            report.check(false, "undecodable event frame");
            continue;
          }
          c.utt.timeline.event_s.push_back(arrived);
          c.utt.timeline.events.push_back(std::move(event));
          if (c.utt.timeline.events.back().is_final &&
              c.phase == Phase::kAwaitFinal) {
            net::append_close(c.out);
            flush(c);
            c.phase = Phase::kClosing;
          }
        }
      }
      if (c.decoder.failed()) {
        c.utt.failed = true;
        eof = true;
      }
      if (!eof) continue;
      ::close(c.fd);
      c.fd = -1;
      if (c.phase == Phase::kOpening && !c.utt.failed) {
        c.phase = Phase::kIdle;  // refused at OPEN: retry the utterance
        c.retry_at = now_s() + kRetrySeconds;
        continue;
      }
      if (c.phase != Phase::kClosing) c.utt.failed = true;
      done.push_back(std::move(c.utt));
      c.utt = Utterance{};
      c.phase = Phase::kIdle;
      c.retry_at = 0.0;
    }
  }
  slice_span.reset();
  tracer.set_active(false);
  out.final_scrape = scrape(metrics_port);
  return out;
}


/// Reports the net/obs/generator per-layer metrics of a drive.
void report_wire_layers(const WireDrive& drive, RunReport& report) {
  report.layer("net.open_rtt_ms", quantile(drive.open_rtt_ms, 0.5), "ms");
  report.layer("net.audio_send_us", quantile(drive.send_us, 0.5), "us");
  report.layer("net.ingress_pause_episodes",
               sample_value(drive.final_scrape,
                            "rt_net_ingress_pause_episodes_total"),
               "count");
  report.layer("net.bytes_in",
               sample_value(drive.final_scrape, "rt_net_bytes_in_total"),
               "bytes");
  report.layer("net.bytes_out",
               sample_value(drive.final_scrape, "rt_net_bytes_out_total"),
               "bytes");
  report.layer("obs.scrape_ms", quantile(drive.scrape_ms, 0.5), "ms");
  report.layer("generator.late_ms_p99", drive.lateness.quantile_ms(0.99),
               "ms");
  report.layer("generator.late_ops",
               static_cast<double>(drive.lateness.late_count(1.0)), "count");
}

/// One FINAL on the wire, as the last event, and no wire error.
bool one_final(const Utterance& u) {
  std::size_t finals = 0;
  for (const speech::StreamEvent& e : u.timeline.events) {
    finals += e.is_final ? 1 : 0;
  }
  return !u.failed && finals == 1 && u.timeline.events.back().is_final;
}

}  // namespace

void run_wire_probe(serve::ShardedEngine& engine, std::uint64_t seed,
                    Tracer& tracer, RunReport& report) {
  obs::Telemetry telemetry;
  net::ServerConfig config;
  config.drive_recognizer = false;
  config.telemetry = &telemetry;
  net::RecognizerServer server(engine, config);
  server.start();
  const WireDrive drive =
      drive_wire(server.port(), server.metrics_port(), seed, 0.5,
                 kWireProbeSeconds, true, tracer, report);
  server.stop();
  for (const Utterance& u : drive.done) {
    const bool ok = one_final(u);
    report.check(ok, "wire probe utterance " + std::to_string(u.seq) +
                         ": not exactly one FINAL");
    report.stream_finished(ok);
  }
  report_wire_layers(drive, report);
}

RunReport run_live_wire(const RunOptions& options) {
  RunReport report;
  ServingDeployment deployment = set_up_serving(true, report);
  serve::ShardedEngine& engine = *deployment.engine;
  Tracer tracer;
  WireDrive drive = drive_wire(
      deployment.server->port(), deployment.server->metrics_port(),
      options.seed, kWarmupSeconds, options.seconds, options.trace, tracer,
      report);
  std::vector<Utterance>& done = drive.done;
  const double window_start = drive.window_start;
  const double window_end = drive.window_end;
  // Partial-lag samples by slice type, for the tracing overhead.
  std::vector<double> slice_lag[2];  // [traced, untraced]
  const auto slice_traced = [&](double due) {
    if (!options.trace || due < window_start || due >= window_end) {
      return false;
    }
    return static_cast<std::size_t>((due - window_start) / kSliceSeconds) %
               2 ==
           0;
  };

  // Latency from the wire, per slice type for the tracing overhead.
  LatencySamples samples;
  for (const Utterance& u : done) {
    if (!u.measured || u.failed) continue;
    samples.add(u.timeline);
    if (options.trace) {
      LatencySamples one;
      one.add(u.timeline);
      std::size_t k = 0;
      for (std::size_t c = 0; c < u.timeline.chunk_due_s.size(); ++c) {
        if (u.timeline.chunk_rows[c] == 0) continue;
        if (k >= one.partial_lag_ms.size()) break;
        slice_lag[slice_traced(u.timeline.chunk_due_s[c]) ? 0 : 1].push_back(
            one.partial_lag_ms[k++]);
      }
    }
  }

  // Replay every utterance in-process on the same deployment: its events
  // must equal the wire's, and its logits are checked like the fleet's.
  // The server stops first: its loop drains every stream's events.
  deployment.server->stop();
  struct Replay {
    serve::StreamHandle handle;
    std::vector<speech::StreamEvent> events;
  };
  std::vector<Replay> replays(done.size());
  std::size_t opened = 0;
  std::vector<std::size_t> next_chunk(done.size(), 0);
  std::vector<bool> finished(done.size(), false);
  std::vector<bool> final_seen(done.size(), false);
  std::size_t wakeups = 0;
  const speech::MfccExtractor extractor([] {
    speech::MfccConfig config;
    config.cepstral_mean_norm = false;
    return config;
  }());
  tracer.set_active(options.trace);
  const double replay_give_up = now_s() + 60.0;
  std::size_t finals = 0;
  std::unordered_map<std::uint64_t, std::size_t> by_handle;
  while (finals < done.size()) {
    if (now_s() > replay_give_up) {
      report.check(false, "in-process replay did not finish in 60 s");
      break;
    }
    bool progressed = false;
    while (opened < done.size()) {
      serve::OpenResult result;
      {
        Tracer::Span span(tracer, "serve", "open");
        result = engine.try_open_stream(serve::StreamConfig{});
      }
      if (!result.ok()) break;
      replays[opened].handle = result.handle;
      by_handle[result.handle.id] = opened;
      ++opened;
      progressed = true;
    }
    for (std::size_t i = 0; i < opened; ++i) {
      const std::vector<float>& wave = done[i].wave;
      const std::size_t chunks =
          (wave.size() + kChunkSamples - 1) / kChunkSamples;
      while (next_chunk[i] < chunks) {
        const std::size_t off = next_chunk[i] * kChunkSamples;
        const std::size_t n = std::min(kChunkSamples, wave.size() - off);
        bool accepted = false;
        {
          Tracer::Span span(tracer, "serve", "submit", i + 1);
          accepted = engine.submit_audio(
              replays[i].handle,
              std::span<const float>(wave.data() + off, n));
        }
        ++report.submits;
        if (!accepted) {
          ++report.submit_refusals;
          break;
        }
        ++next_chunk[i];
        progressed = true;
      }
      if (next_chunk[i] == chunks && !finished[i]) {
        finished[i] = engine.finish_stream(replays[i].handle);
        progressed = progressed || finished[i];
      }
    }
    std::vector<serve::RecognizerEvent> events;
    {
      Tracer::Span span(tracer, "serve", "poll");
      engine.poll_events(events);
    }
    for (serve::RecognizerEvent& e : events) {
      const auto it = by_handle.find(e.stream.id);
      if (it == by_handle.end()) continue;
      if (e.event.is_final && !final_seen[it->second]) {
        final_seen[it->second] = true;
        ++finals;
      }
      replays[it->second].events.push_back(std::move(e.event));
      progressed = true;
    }
    if (!progressed) {
      Tracer::Span span(tracer, "serve", "wait");
      if (engine.wait_for_events(std::chrono::microseconds(1000))) ++wakeups;
    }
  }
  tracer.set_active(false);

  std::size_t ref_checked = 0;
  Matrix probe_logits;
  for (std::size_t i = 0; i < done.size(); ++i) {
    Utterance& u = done[i];
    const std::string tag = "utterance " + std::to_string(u.seq);
    bool ok = one_final(u);
    report.check(ok, tag + ": not exactly one FINAL on the wire");
    if (i < opened && final_seen[i]) {
      while (!engine.stream_done(replays[i].handle)) {
        (void)engine.wait_for_events(std::chrono::microseconds(1000));
      }
      const Matrix logits = engine.stream_logits(replays[i].handle);
      if (probe_logits.rows() == 0) probe_logits = logits;
      const bool same_events = replays[i].events == u.timeline.events;
      const bool rows_ok = logits.rows() == extractor.frame_count(u.wave.size());
      const bool decode_ok =
          concat_stable(u.timeline.events) == speech::greedy_decode(logits);
      report.check(same_events, tag + ": wire events != in-process events");
      report.check(rows_ok, tag + ": logit rows != MFCC frames");
      report.check(decode_ok, tag + ": stable deltas != greedy_decode");
      ok = ok && same_events && rows_ok && decode_ok;
      if (ref_checked < kReferenceChecks) {
        const LogitCheck check = check_logits(
            logits, deployment.pruned.model->forward(batch_features(u.wave)),
            kInt8Act8LogitBound);
        report.check(check.ok, tag + ": reference logits: " + check.message);
        ok = ok && check.ok;
        ++ref_checked;
      }
      while (!engine.close_stream(replays[i].handle)) {
        ++report.submit_refusals;
      }
    } else {
      report.check(false, tag + ": no in-process replay");
      ok = false;
    }
    report.stream_finished(ok);
  }
  report.check(ref_checked == kReferenceChecks,
               "fewer utterances than reference checks completed");

  engine.stop();

  // xrt: audio seconds served per wall second over the window, from the
  // logit rows the events arriving inside it covered.
  std::size_t window_rows = 0;
  for (const Utterance& u : done) {
    std::size_t seen = 0;
    for (std::size_t i = 0; i < u.timeline.events.size(); ++i) {
      const std::size_t rows = u.timeline.events[i].frames;
      const double at = u.timeline.event_s[i];
      if (rows > seen && at >= window_start && at < window_end) {
        window_rows += rows - seen;
      }
      seen = std::max(seen, rows);
    }
  }
  report.e2e("xrt",
             static_cast<double>(window_rows) * kFrameSeconds /
                 options.seconds,
             "audio_s/s");
  report_latency(report, samples);
  report_engine_stats(engine, report);
  report.e2e("peak_rss_mb", peak_rss_mb(), "MiB");

  if (options.trace) {
    report_trace(tracer, quantile(slice_lag[0], 0.5),
                 quantile(slice_lag[1], 0.5), false, report,
                 options.trace_path);
    report_wire_layers(drive, report);
    report_serve_calls(tracer, wakeups, report);
    const serve::GlobalStats global = engine.stats();
    std::vector<std::vector<float>> probe_waves;
    for (std::size_t i = 0; i < std::min<std::size_t>(4, done.size()); ++i) {
      probe_waves.push_back(done[i].wave);
    }
    const Matrix features = batch_features(done.front().wave);
    probe_compiler(deployment.pruned, serving_options(),
                   static_cast<std::size_t>(
                       global.merged.fused_width.mean_us() + 0.5),
                   features, report);
    probe_speech(probe_waves, probe_logits, report);
  }
  return report;
}

}  // namespace servebench
