#include "net/recognizer_server.hpp"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <csignal>
#include <cstring>
#include <mutex>

#include "obs/telemetry.hpp"
#include "serve/sharded_engine.hpp"
#include "util/check.hpp"

namespace rtmobile::net {

namespace {
constexpr int kMaxEpollEvents = 64;
/// A scrape request larger than this is garbage, not HTTP.
constexpr std::size_t kMaxHttpRequest = 16 * 1024;

/// Every write path already passes MSG_NOSIGNAL, but belt-and-braces:
/// a stray write to a peer-closed socket must never kill the process.
/// Process-wide, done once, never restored — SIGPIPE's default action
/// has no place in a server.
std::once_flag sigpipe_once;
void ignore_sigpipe() {
  std::call_once(sigpipe_once, [] { ::signal(SIGPIPE, SIG_IGN); });
}

std::uint64_t steady_now_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Binds a non-blocking listener and reports the resolved port.
int make_listener(const std::string& address, std::uint16_t port,
                  int backlog, std::uint16_t& bound_port) {
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  RT_CHECK(fd >= 0, "socket creation failed");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  RT_CHECK(::inet_pton(AF_INET, address.c_str(), &addr.sin_addr) == 1,
           "invalid bind address (dotted-quad IPv4 expected)");
  RT_CHECK(::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0,
           "bind failed (address in use?)");
  RT_CHECK(::listen(fd, backlog) == 0, "listen failed");

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  RT_CHECK(::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) ==
               0,
           "getsockname failed");
  bound_port = ntohs(bound.sin_port);
  return fd;
}
}  // namespace

RecognizerServer::RecognizerServer(serve::ShardedEngine& engine,
                                   ServerConfig config)
    : engine_(engine), config_(std::move(config)) {
  ignore_sigpipe();
  listen_fd_ = make_listener(config_.bind_address, config_.port,
                             config_.backlog, port_);
  if (config_.telemetry != nullptr) {
    metrics_listen_fd_ = make_listener(
        config_.bind_address, config_.metrics_port, config_.backlog,
        metrics_port_);
  }

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  RT_CHECK(epoll_fd_ >= 0, "epoll_create1 failed");
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  RT_CHECK(wake_fd_ >= 0, "eventfd failed");

  epoll_event ev{};
  ev.events = EPOLLIN;  // level-triggered: accept backlog must persist
  ev.data.fd = listen_fd_;
  RT_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) == 0,
           "epoll_ctl(listen) failed");
  if (metrics_listen_fd_ >= 0) {
    ev.events = EPOLLIN;
    ev.data.fd = metrics_listen_fd_;
    RT_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, metrics_listen_fd_,
                         &ev) == 0,
             "epoll_ctl(metrics listen) failed");
  }
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  RT_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) == 0,
           "epoll_ctl(eventfd) failed");
}

RecognizerServer::~RecognizerServer() {
  stop();
  connections_.clear();  // closes sockets, releases live streams
  for (const auto& [fd, client] : http_clients_) ::close(fd);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (metrics_listen_fd_ >= 0) ::close(metrics_listen_fd_);
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

void RecognizerServer::wake() {
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void RecognizerServer::start() {
  if (running_.exchange(true)) return;
  loop_thread_ = std::thread([this] {
    while (running_.load(std::memory_order_relaxed)) {
      run_once(std::chrono::milliseconds(50));
    }
  });
  if (!config_.drive_recognizer) {
    // The pumps publish events on their own threads; this thread turns
    // "events pending" into an epoll wakeup so the loop sleeps properly.
    notifier_thread_ = std::thread([this] {
      while (running_.load(std::memory_order_relaxed)) {
        if (engine_.wait_for_events(std::chrono::microseconds(100000))) {
          wake();
        }
      }
    });
  }
}

void RecognizerServer::stop() {
  if (!running_.exchange(false)) {
    if (loop_thread_.joinable()) loop_thread_.join();
    if (notifier_thread_.joinable()) notifier_thread_.join();
    return;
  }
  wake();
  if (loop_thread_.joinable()) loop_thread_.join();
  if (notifier_thread_.joinable()) notifier_thread_.join();
}

void RecognizerServer::accept_ready() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;  // transient accept failure; backlog retried next loop
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    Entry entry;
    entry.conn = std::make_unique<Connection>(
        fd, engine_, config_.max_write_buffer, config_.telemetry,
        config_.fault);
    epoll_event ev{};
    // Edge-triggered for clients: each readiness transition is serviced
    // exactly once by draining to EAGAIN; a connection paused for
    // backpressure simply declines to drain, and the kernel buffer
    // filling is what backpressures the peer.
    ev.events = EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      continue;  // Entry destruction closes fd and any stream
    }
    connections_.emplace(fd, std::move(entry));
    accepted_total_.fetch_add(1, std::memory_order_relaxed);
    if (config_.telemetry != nullptr) config_.telemetry->net().accepted->add(1);
    publish_connection_count();
  }
}

void RecognizerServer::publish_connection_count() {
  live_connections_.store(connections_.size(), std::memory_order_relaxed);
  if (config_.telemetry != nullptr) {
    config_.telemetry->net().connections->set(
        static_cast<double>(connections_.size()));
  }
}

void RecognizerServer::service(int fd, std::uint32_t events) {
  const auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  Connection& conn = *it->second.conn;
  if ((events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR)) != 0) {
    conn.on_readable();
  }
  if ((events & EPOLLOUT) != 0) conn.on_writable();
}

std::size_t RecognizerServer::run_once(std::chrono::milliseconds timeout) {
  // Parked operations and drive-mode serving both want another turn
  // promptly; otherwise sleep until socket or notifier activity.
  bool busy = false;
  for (const auto& [fd, entry] : connections_) {
    if (entry.conn->paused() || entry.conn->wants_write()) {
      busy = true;
      break;
    }
    if (config_.drive_recognizer && entry.conn->has_stream()) {
      busy = true;
      break;
    }
  }
  const int wait_ms =
      busy ? 0 : deadline_capped_wait_ms(static_cast<int>(timeout.count()));

  std::array<epoll_event, kMaxEpollEvents> events;
  int n = ::epoll_wait(epoll_fd_, events.data(),
                       static_cast<int>(events.size()), wait_ms);
  if (n < 0) n = 0;  // EINTR: treat as timeout

  for (int i = 0; i < n; ++i) {
    const int fd = events[static_cast<std::size_t>(i)].data.fd;
    const std::uint32_t mask = events[static_cast<std::size_t>(i)].events;
    if (fd == listen_fd_) {
      accept_ready();
    } else if (fd == metrics_listen_fd_) {
      accept_metrics_ready();
    } else if (fd == wake_fd_) {
      std::uint64_t drained = 0;
      [[maybe_unused]] const ssize_t r =
          ::read(wake_fd_, &drained, sizeof(drained));
    } else if (http_clients_.count(fd) != 0) {
      service_http(fd, mask);
    } else {
      service(fd, mask);
    }
  }

  pump();
  return static_cast<std::size_t>(n);
}

void RecognizerServer::pump() {
  if (config_.drive_recognizer) engine_.drain();

  // Map freshly opened streams so the event fan-out below can route.
  for (auto& [fd, entry] : connections_) {
    if (!entry.mapped && entry.conn->has_stream()) {
      entry.mapped_handle = entry.conn->handle_id();
      by_handle_.emplace(entry.mapped_handle, entry.conn.get());
      entry.mapped = true;
    }
  }

  event_scratch_.clear();
  engine_.poll_events(event_scratch_);
  for (serve::RecognizerEvent& tagged : event_scratch_) {
    const auto it = by_handle_.find(tagged.stream.id);
    // Events of a stream whose connection died are dropped on the
    // floor — there is no client left to care.
    if (it != by_handle_.end()) it->second->deliver_event(tagged.event);
  }

  for (auto& [fd, entry] : connections_) {
    entry.conn->pump_pending();
    entry.conn->try_flush();
  }
  expire_connections();
  reap();
}

void RecognizerServer::expire_connections() {
  const std::uint64_t idle_us = static_cast<std::uint64_t>(
      config_.idle_timeout.count() * 1000);
  const std::uint64_t stall_us = static_cast<std::uint64_t>(
      config_.write_stall_timeout.count() * 1000);
  if (idle_us == 0 && stall_us == 0) return;
  const std::uint64_t now = steady_now_us();
  for (auto& [fd, entry] : connections_) {
    Connection& conn = *entry.conn;
    // Write stall first: it is the harder failure (the error frame an
    // idle expiry would queue could never be delivered anyway).
    if (stall_us != 0 && conn.wants_write() &&
        now - conn.last_write_progress_us() >= stall_us) {
      conn.expire_write_stalled();
      continue;
    }
    if (idle_us != 0 && now - conn.last_activity_us() >= idle_us) {
      conn.expire_idle();
    }
  }
}

int RecognizerServer::deadline_capped_wait_ms(int budget) const {
  const std::uint64_t idle_us = static_cast<std::uint64_t>(
      config_.idle_timeout.count() * 1000);
  const std::uint64_t stall_us = static_cast<std::uint64_t>(
      config_.write_stall_timeout.count() * 1000);
  if ((idle_us == 0 && stall_us == 0) || connections_.empty()) {
    return budget;
  }
  const std::uint64_t now = steady_now_us();
  std::uint64_t earliest_us = static_cast<std::uint64_t>(budget) * 1000;
  for (const auto& [fd, entry] : connections_) {
    const Connection& conn = *entry.conn;
    if (idle_us != 0) {
      const std::uint64_t elapsed = now - conn.last_activity_us();
      const std::uint64_t left = elapsed >= idle_us ? 0 : idle_us - elapsed;
      earliest_us = std::min(earliest_us, left);
    }
    if (stall_us != 0 && conn.wants_write()) {
      const std::uint64_t elapsed = now - conn.last_write_progress_us();
      const std::uint64_t left =
          elapsed >= stall_us ? 0 : stall_us - elapsed;
      earliest_us = std::min(earliest_us, left);
    }
  }
  // Round up: sleeping 1ms short beats waking 1ms past the deadline
  // forever at sub-ms granularity.
  return static_cast<int>((earliest_us + 999) / 1000);
}

void RecognizerServer::reap() {
  reap_scratch_.clear();
  for (auto& [fd, entry] : connections_) {
    if (entry.conn->should_drop()) reap_scratch_.push_back(fd);
  }
  for (const int fd : reap_scratch_) {
    const auto it = connections_.find(fd);
    if (it->second.mapped) by_handle_.erase(it->second.mapped_handle);
    // Connection's destructor closes the socket, which also removes it
    // from the epoll interest list.
    connections_.erase(it);
  }
  if (!reap_scratch_.empty()) {
    if (config_.telemetry != nullptr) {
      config_.telemetry->net().closed->add(reap_scratch_.size());
    }
    publish_connection_count();
  }
}

// ------------------------------------------------------ metrics endpoint

void RecognizerServer::accept_metrics_ready() {
  for (;;) {
    const int fd = ::accept4(metrics_listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    epoll_event ev{};
    // Edge-triggered like the data plane; adding an already-readable fd
    // still delivers its first edge, so a request that raced the accept
    // is not lost.
    ev.events = EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    http_clients_.emplace(fd, HttpClient{});
  }
}

void RecognizerServer::service_http(int fd, std::uint32_t events) {
  const auto it = http_clients_.find(fd);
  if (it == http_clients_.end()) return;
  HttpClient& client = it->second;
  if ((events & (EPOLLHUP | EPOLLERR)) != 0) client.dead = true;
  if (!client.dead && (events & (EPOLLIN | EPOLLRDHUP)) != 0) {
    bool saw_eof = false;
    std::array<char, 4096> chunk;
    for (;;) {
      const ssize_t n = ::recv(fd, chunk.data(), chunk.size(), 0);
      if (n > 0) {
        client.in.append(chunk.data(), static_cast<std::size_t>(n));
        if (client.in.size() > kMaxHttpRequest) {
          client.dead = true;
          break;
        }
        continue;
      }
      if (n == 0) {  // peer finished sending (half-close) or closed
        saw_eof = true;
        break;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      client.dead = true;
      break;
    }
    if (!client.dead && !client.responded &&
        (client.in.find("\r\n\r\n") != std::string::npos ||
         client.in.find("\n\n") != std::string::npos)) {
      respond_http(client);
    }
    // EOF with no (complete) request: nothing will ever arrive to
    // answer — drop instead of holding the fd forever.
    if (saw_eof && !client.responded) client.dead = true;
  }
  flush_http(fd, client);
  if (client.dead ||
      (client.responded && client.out_pos >= client.out.size())) {
    ::close(fd);  // also deregisters from epoll
    http_clients_.erase(fd);
  }
}

void RecognizerServer::respond_http(HttpClient& client) {
  // Request line: METHOD SP PATH SP VERSION. Everything else (headers)
  // is ignored — a scrape has no body and needs no negotiation.
  const std::string line =
      client.in.substr(0, client.in.find_first_of("\r\n"));
  const std::size_t method_end = line.find(' ');
  const std::size_t path_end =
      method_end == std::string::npos ? std::string::npos
                                      : line.find(' ', method_end + 1);
  const std::string method =
      method_end == std::string::npos ? "" : line.substr(0, method_end);
  const std::string path =
      path_end == std::string::npos
          ? ""
          : line.substr(method_end + 1, path_end - method_end - 1);

  std::string status = "200 OK";
  std::string type = "text/plain; charset=utf-8";
  std::string body;
  if (method != "GET") {
    status = "405 Method Not Allowed";
    body = "only GET is served here\n";
  } else if (path == "/metrics") {
    type = "text/plain; version=0.0.4; charset=utf-8";
    body = config_.telemetry->render_prometheus();
  } else if (path == "/metrics.json") {
    type = "application/json";
    body = config_.telemetry->render_json();
  } else {
    status = "404 Not Found";
    body = "try /metrics or /metrics.json\n";
  }
  if (status[0] == '2') config_.telemetry->net().scrapes->add(1);

  client.out = "HTTP/1.0 " + status + "\r\nContent-Type: " + type +
               "\r\nContent-Length: " + std::to_string(body.size()) +
               "\r\nConnection: close\r\n\r\n" + body;
  client.responded = true;
}

void RecognizerServer::flush_http(int fd, HttpClient& client) {
  if (client.dead) return;
  while (client.out_pos < client.out.size()) {
    const ssize_t n =
        ::send(fd, client.out.data() + client.out_pos,
               client.out.size() - client.out_pos, MSG_NOSIGNAL);
    if (n > 0) {
      client.out_pos += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;  // EPOLLOUT later
    if (errno == EINTR) continue;
    client.dead = true;
    return;
  }
}

}  // namespace rtmobile::net
