#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "core/fault.h"

namespace awesim::serve {

namespace json = obs::json;

namespace {

void set_recv_timeout(int fd, double seconds) {
  if (seconds <= 0.0) return;
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec = static_cast<suseconds_t>((seconds - static_cast<double>(
                                                       tv.tv_sec)) *
                                        1e6);
  (void)setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  // A peer that stops draining its socket must not pin a worker in
  // send() forever either.
  (void)setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

}  // namespace

Server::Server(timing::Design design, timing::AnalysisOptions analysis,
               ServeOptions options)
    : store_(std::move(design), analysis), options_(std::move(options)) {
  if (options_.workers < 1) options_.workers = 1;
  if (options_.max_queue < 1) options_.max_queue = 1;
  if (options_.max_clients < 1) options_.max_clients = 1;
  if (options_.max_inflight_per_client < 1) {
    options_.max_inflight_per_client = 1;
  }
}

Server::~Server() { stop(); }

void Server::start() {
  if (running_.exchange(true)) return;
  stopping_.store(false);

  if (!options_.unix_path.empty()) {
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
      running_.store(false);
      throw std::runtime_error(std::string("serve: socket: ") +
                               std::strerror(errno));
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options_.unix_path.size() >= sizeof(addr.sun_path)) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      running_.store(false);
      throw std::runtime_error("serve: unix socket path too long: " +
                               options_.unix_path);
    }
    std::strncpy(addr.sun_path, options_.unix_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    (void)::unlink(options_.unix_path.c_str());
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      const int err = errno;
      ::close(listen_fd_);
      listen_fd_ = -1;
      running_.store(false);
      throw std::runtime_error("serve: bind " + options_.unix_path + ": " +
                               std::strerror(err));
    }
  } else if (options_.tcp_port >= 0) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
      running_.store(false);
      throw std::runtime_error(std::string("serve: socket: ") +
                               std::strerror(errno));
    }
    const int one = 1;
    (void)setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(options_.tcp_port));
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      const int err = errno;
      ::close(listen_fd_);
      listen_fd_ = -1;
      running_.store(false);
      throw std::runtime_error("serve: bind 127.0.0.1:" +
                               std::to_string(options_.tcp_port) + ": " +
                               std::strerror(err));
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                      &len) == 0) {
      bound_port_ = static_cast<int>(ntohs(bound.sin_port));
    }
  } else {
    running_.store(false);
    throw std::runtime_error("serve: no listener (set unix_path or "
                             "tcp_port)");
  }

  if (::listen(listen_fd_, 64) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    running_.store(false);
    throw std::runtime_error(std::string("serve: listen: ") +
                             std::strerror(err));
  }

  workers_.reserve(static_cast<std::size_t>(options_.workers));
  for (int i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void Server::wait() {
  std::unique_lock<std::mutex> lock(wait_mutex_);
  wait_cv_.wait(lock, [this] {
    return shutdown_requested_.load() || stopping_.load();
  });
}

void Server::stop() {
  if (!running_.load()) return;
  if (stopping_.exchange(true)) {
    // Another stop() is already tearing down; just wait for it via the
    // joins below being idempotent is not safe -- bail.
    return;
  }
  wait_cv_.notify_all();

  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (!options_.unix_path.empty()) {
    (void)::unlink(options_.unix_path.c_str());
  }

  // Wake every reader blocked in recv(); they observe stopping_ and
  // exit.  The fds are closed by the readers' own epilogue.
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    for (const auto& conn : connections_) {
      if (!conn->done.load()) (void)::shutdown(conn->fd, SHUT_RDWR);
    }
  }
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    for (auto& conn : connections_) {
      if (conn->reader.joinable()) conn->reader.join();
    }
    connections_.clear();
  }

  queue_cv_.notify_all();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    queue_.clear();
  }
  running_.store(false);
}

ServeCounters Server::counters() const {
  ServeCounters c;
  c.accepted = counters_.accepted.load();
  c.refused = counters_.refused.load();
  c.requests = counters_.requests.load();
  c.responses_ok = counters_.responses_ok.load();
  c.responses_error = counters_.responses_error.load();
  c.shed_queue = counters_.shed_queue.load();
  c.shed_inflight = counters_.shed_inflight.load();
  c.oversize = counters_.oversize.load();
  c.idle_closed = counters_.idle_closed.load();
  c.accept_faults = counters_.accept_faults.load();
  c.write_failures = counters_.write_failures.load();
  return c;
}

json::Value Server::stats_json() const {
  const ServeCounters c = counters();
  json::Value v = json::Value::object();
  v.set("accepted", json::Value(static_cast<unsigned long long>(c.accepted)));
  v.set("refused", json::Value(static_cast<unsigned long long>(c.refused)));
  v.set("requests", json::Value(static_cast<unsigned long long>(c.requests)));
  v.set("responses_ok", json::Value(static_cast<unsigned long long>(c.responses_ok)));
  v.set("responses_error", json::Value(static_cast<unsigned long long>(c.responses_error)));
  v.set("shed_queue", json::Value(static_cast<unsigned long long>(c.shed_queue)));
  v.set("shed_inflight", json::Value(static_cast<unsigned long long>(c.shed_inflight)));
  v.set("oversize", json::Value(static_cast<unsigned long long>(c.oversize)));
  v.set("idle_closed", json::Value(static_cast<unsigned long long>(c.idle_closed)));
  v.set("accept_faults", json::Value(static_cast<unsigned long long>(c.accept_faults)));
  v.set("write_failures", json::Value(static_cast<unsigned long long>(c.write_failures)));
  std::size_t depth = 0;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    depth = queue_.size();
  }
  v.set("queue_depth", static_cast<unsigned long long>(depth));
  std::size_t open = 0;
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    for (const auto& conn : connections_) {
      if (!conn->done.load()) ++open;
    }
  }
  v.set("open_clients", static_cast<unsigned long long>(open));
  return v;
}

bool Server::write_line(Connection& conn, const std::string& line) {
  std::lock_guard<std::mutex> lock(conn.write_mutex);
  std::string framed = line;
  framed.push_back('\n');
  std::size_t off = 0;
  while (off < framed.size()) {
    const ssize_t n = ::send(conn.fd, framed.data() + off,
                             framed.size() - off, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      counters_.write_failures.fetch_add(1);
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

void Server::refuse_connection(int fd, const char* why) {
  const std::string line =
      error_response(json::Value(), server_overloaded(why),
                     options_.retry_after_ms)
          .dump() +
      "\n";
  (void)::send(fd, line.data(), line.size(), MSG_NOSIGNAL);
  ::close(fd);
}

void Server::reap_finished_locked() {
  for (auto it = connections_.begin(); it != connections_.end();) {
    if ((*it)->done.load() && (*it)->inflight.load() == 0) {
      if ((*it)->reader.joinable()) (*it)->reader.join();
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

void Server::accept_loop() {
  while (!stopping_.load()) {
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, 100);
    if (stopping_.load()) break;
    if (ready <= 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;

    if (core::fault_at("serve.accept")) {
      // The probe models accept-path failures (fd exhaustion, a dying
      // TLS handshake in a richer deployment): the client still gets a
      // structured response, the daemon keeps serving everyone else.
      counters_.accept_faults.fetch_add(1);
      refuse_connection(fd, "injected fault at serve.accept");
      continue;
    }

    set_recv_timeout(fd, options_.idle_timeout_s);
    if (options_.unix_path.empty()) {
      // One NDJSON line per reply: without TCP_NODELAY, Nagle holds each
      // reply until the client's delayed ACK arrives.
      const int one = 1;
      (void)setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }

    std::lock_guard<std::mutex> lock(conn_mutex_);
    reap_finished_locked();
    std::size_t open = 0;
    for (const auto& conn : connections_) {
      if (!conn->done.load()) ++open;
    }
    if (open >= options_.max_clients) {
      counters_.refused.fetch_add(1);
      refuse_connection(fd, "client limit reached; retry later");
      continue;
    }
    counters_.accepted.fetch_add(1);
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    conn->client = next_client_++;
    connections_.push_back(conn);
    conn->reader = std::thread([this, conn] { reader_loop(conn); });
  }
}

void Server::reader_loop(const std::shared_ptr<Connection>& conn) {
  std::string buffer;
  char chunk[4096];
  bool close_now = false;
  while (!stopping_.load() && !close_now) {
    const ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
    if (n == 0) break;  // peer hung up
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // Idle/stuck client: nothing arrived within idle_timeout_s.
        counters_.idle_closed.fetch_add(1);
        break;
      }
      break;
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
    if (buffer.size() > options_.max_request_bytes &&
        buffer.find('\n') == std::string::npos) {
      counters_.oversize.fetch_add(1);
      write_line(*conn,
                 error_response(json::Value(),
                                invalid_request(
                                    "request line exceeds size limit"))
                     .dump());
      break;
    }
    std::size_t start = 0;
    for (;;) {
      const std::size_t nl = buffer.find('\n', start);
      if (nl == std::string::npos) break;
      std::string line = buffer.substr(start, nl - start);
      start = nl + 1;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      if (line.size() > options_.max_request_bytes) {
        counters_.oversize.fetch_add(1);
        write_line(*conn,
                   error_response(json::Value(),
                                  invalid_request(
                                      "request line exceeds size limit"))
                       .dump());
        close_now = true;
        break;
      }

      // Admission control, cheapest checks first.
      if (conn->inflight.load() >= options_.max_inflight_per_client) {
        counters_.shed_inflight.fetch_add(1);
        write_line(*conn,
                   error_response(json::Value(),
                                  server_overloaded(
                                      "client in-flight limit reached"),
                                  options_.retry_after_ms)
                       .dump());
        continue;
      }
      bool queued = false;
      {
        std::lock_guard<std::mutex> lock(queue_mutex_);
        if (queue_.size() < options_.max_queue) {
          conn->inflight.fetch_add(1);
          counters_.requests.fetch_add(1);
          queue_.push_back(Task{conn, std::move(line)});
          queued = true;
        }
      }
      if (queued) {
        queue_cv_.notify_one();
      } else {
        counters_.shed_queue.fetch_add(1);
        write_line(*conn,
                   error_response(json::Value(),
                                  server_overloaded(
                                      "admission queue full"),
                                  options_.retry_after_ms)
                       .dump());
      }
    }
    buffer.erase(0, start);
  }
  // Wait for this connection's in-flight requests so workers never
  // write to a closed fd slot... the fd stays open until they drain.
  while (conn->inflight.load() != 0 && !stopping_.load()) {
    std::this_thread::yield();
  }
  ::close(conn->fd);
  conn->done.store(true);
}

void Server::worker_loop() {
  HandleOptions hopts;
  hopts.server_stats = [this] { return stats_json(); };
  hopts.default_deadline_ms = options_.default_deadline_ms;
  while (true) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [this] {
        return stopping_.load() || !queue_.empty();
      });
      if (stopping_.load()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    const HandleResult result = handle_line(store_, task.line, hopts);
    if (result.ok) {
      counters_.responses_ok.fetch_add(1);
    } else {
      counters_.responses_error.fetch_add(1);
    }
    write_line(*task.conn, result.line);
    task.conn->inflight.fetch_sub(1);
    if (result.shutdown) {
      shutdown_requested_.store(true);
      wait_cv_.notify_all();
    }
  }
}

}  // namespace awesim::serve
