// serve_mixed: an open-loop, fixed-rate generator against an in-process
// serve::Server on loopback TCP.
//
// One generator thread owns two connections and sends each request at its
// due time, whatever the replies are doing: arrivals are a seeded Poisson
// stream at the offered rate, each on a seeded random connection, as from
// many independent users.  Latency is timed from the due time, so a stall
// also charges the requests queued behind it.  The client is a plain
// NDJSON client (TCP_NODELAY on its requests, default ACK behavior), so
// any delay the daemon's socket handling adds to a reply is measured.
// About 90% of requests read (25% analyze, 55% worst_paths k=10, 10%
// stats) and 10% write (set_value, set_gate), so the first read after a
// write recomputes on a new snapshot generation.
//
// A run offers a base rate for 40% of --seconds (the latency metrics),
// then climbs a fixed rate ladder until read p99 breaks the limit and
// bisects the last step; the crossing, interpolated between the last
// passing and first failing rung, is the highest rate the service
// sustains.  The traced run skips
// the ladder and instead replays the base step's request log in-process
// through serve::handle_line, untraced and traced in alternation.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "audit/design_netlist.h"
#include "common.h"
#include "gen.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace perfbench {

namespace {

/// Two connections rather than the allowed four: each then carries
/// 150 req/s at the base rate, so its replies stay in one steady regime
/// for the whole step (see README.md, "Noise"), and the latency
/// percentiles repeat from seed to seed.
constexpr std::size_t kConnections = 2;
/// Read p99 above this (from the due time) fails a ladder rung.  Reads
/// that follow a write wait for the new generation's recompute, which
/// puts p99 at 20-50 ms even at low rates; the limit sits well above
/// that floor, where queueing makes p99 climb steeply, so the crossing
/// does not hang on one slow recompute.
constexpr double kReadLimitMs = 100.0;
/// A request unanswered this long after its due time counts as failed.
constexpr double kTimeoutS = 5.0;

DesignSpec serve_spec(bool smoke) {
  DesignSpec s;
  s.topology = DesignSpec::Topology::BinaryTree;
  s.roots = smoke ? 2 : 8;
  s.gates_per_root = smoke ? 15 : 31;
  s.shape = DesignSpec::NetShape::RcTree;
  s.nodes_lo = 20;
  s.nodes_hi = 40;
  return s;
}

timing::AnalysisOptions serve_analysis() {
  timing::AnalysisOptions options;
  options.threads = 1;  // requests, not stages, are the concurrency unit
  return options;
}

serve::ServeOptions serve_options() {
  serve::ServeOptions options;
  options.tcp_port = 0;
  options.workers = 2;
  options.max_clients = kConnections;
  // Enough admission room that overload shows as queueing latency, which
  // the ladder measures, rather than as shed requests.
  options.max_inflight_per_client = 128;
  options.max_queue = kConnections * 128;
  return options;
}

enum class Method { Analyze, WorstPaths, Stats, SetValue, SetGate };
constexpr const char* kMethodNames[] = {"analyze", "worst_paths", "stats",
                                        "set_value", "set_gate"};
bool is_write(Method m) { return m == Method::SetValue || m == Method::SetGate; }

/// The seeded request mix over one design.
class Mix {
 public:
  Mix(const timing::Design& design, std::uint64_t seed)
      : design_(design), rng_(seed ^ 0x5e7eULL) {}

  Method next(std::uint64_t id, std::string* line) {
    const double u = rng_.unit();
    char buf[256];
    int len = 0;
    Method m;
    if (u < 0.25) {
      m = Method::Analyze;
      len = std::snprintf(buf, sizeof(buf),
                          R"({"id":%llu,"method":"analyze"})",
                          static_cast<unsigned long long>(id));
    } else if (u < 0.80) {
      m = Method::WorstPaths;
      len = std::snprintf(buf, sizeof(buf),
                          R"({"id":%llu,"method":"worst_paths","params":{"k":10}})",
                          static_cast<unsigned long long>(id));
    } else if (u < 0.90) {
      m = Method::Stats;
      len = std::snprintf(buf, sizeof(buf), R"({"id":%llu,"method":"stats"})",
                          static_cast<unsigned long long>(id));
    } else if (u < 0.96) {
      m = Method::SetValue;
      const std::size_t n = rng_.below(design_.net_count());
      const timing::Net& net = design_.net_at(n);
      const std::size_t e = rng_.below(net.parasitics.size());
      len = std::snprintf(
          buf, sizeof(buf),
          R"({"id":%llu,"method":"set_value","params":{"net":"%s","element_index":%zu,"value":%.9g}})",
          static_cast<unsigned long long>(id), net.name.c_str(), e,
          net.parasitics[e].value * rng_.uniform(0.5, 2.0));
    } else {
      m = Method::SetGate;
      const std::string& g = design_.net_driver(rng_.below(design_.net_count()));
      len = std::snprintf(
          buf, sizeof(buf),
          R"({"id":%llu,"method":"set_gate","params":{"gate":"%s","drive_resistance":%.9g}})",
          static_cast<unsigned long long>(id), g.c_str(),
          design_.gates().at(g).drive_resistance * rng_.uniform(0.5, 2.0));
    }
    line->assign(buf, static_cast<std::size_t>(len));
    return m;
  }

 private:
  const timing::Design& design_;
  Rng rng_;
};

/// One loopback NDJSON connection.
class Connection {
 public:
  explicit Connection(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd_);
      throw std::runtime_error("connect failed");
    }
    // A latency-sensitive client: never hold a request back for Nagle.
    const int one = 1;
    (void)setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  ~Connection() { ::close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  int fd() const { return fd_; }

  void send_line(const std::string& line) {
    std::string framed = line + "\n";
    std::size_t off = 0;
    while (off < framed.size()) {
      const ssize_t n = ::send(fd_, framed.data() + off, framed.size() - off,
                               MSG_NOSIGNAL);
      if (n <= 0) throw std::runtime_error("send failed");
      off += static_cast<std::size_t>(n);
    }
  }

  /// Read what is available (the caller polled) and append complete
  /// lines to `lines`.  False when the peer closed.
  bool read_lines(std::vector<std::string>& lines) {
    char chunk[65536];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<std::size_t>(n));
    std::size_t begin = 0;
    for (std::size_t nl; (nl = buffer_.find('\n', begin)) != std::string::npos;
         begin = nl + 1) {
      lines.push_back(buffer_.substr(begin, nl - begin));
    }
    buffer_.erase(0, begin);
    return true;
  }

  /// Blocking request/response, for warm-up.
  std::string roundtrip(const std::string& line) {
    send_line(line);
    std::vector<std::string> lines;
    while (lines.empty()) {
      if (!read_lines(lines)) throw std::runtime_error("connection closed");
    }
    return lines.front();
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

struct State {
  timing::Design design;
  std::unique_ptr<serve::Server> server;
  // Declared after the server, so connections close before it stops.
  std::vector<std::unique_ptr<Connection>> connections;
};

struct Sent {
  Method method = Method::Analyze;
  std::string line;
  std::size_t connection = 0;
  Clock::time_point due;
  Clock::time_point sent;
  Clock::time_point done;
  bool answered = false;
  bool ok = false;
  std::uint64_t generation = 0;
  /// Highest generation a write reply had announced when this was sent.
  std::uint64_t min_generation = 0;
  std::string reply;  // kept for validation on the base step only
};

/// Integer after `"key":` in a reply line; -1 when absent.
long long field(const std::string& line, const char* key) {
  const std::string pat = std::string("\"") + key + "\":";
  const std::size_t at = line.find(pat);
  if (at == std::string::npos) return -1;
  return std::strtoll(line.c_str() + at + pat.size(), nullptr, 10);
}

/// Offer `rate` requests/s for `seconds`, then wait for the replies.
std::vector<Sent> run_step(State& st, Mix& mix, Rng& arrivals,
                           std::uint64_t* next_id, double rate, double seconds,
                           bool keep_replies) {
  const std::size_t count =
      std::max<std::size_t>(1, static_cast<std::size_t>(rate * seconds));
  std::vector<Sent> log(count);
  const std::uint64_t first_id = *next_id;
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(1);
  double offset_s = 0.0;
  for (Sent& s : log) {
    offset_s += -std::log(1.0 - arrivals.unit()) / rate;
    s.due = start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(offset_s));
    s.connection = arrivals.below(st.connections.size());
  }
  // Wake at the due time, not up to the default 50 us timer slack later.
  (void)prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  std::vector<pollfd> fds;
  for (const auto& c : st.connections) fds.push_back({c->fd(), POLLIN, 0});
  std::uint64_t acked_write_generation = 0;
  std::size_t next = 0;
  std::size_t answered = 0;
  // Shed replies carry "id":null (the daemon refuses before parsing);
  // each one answers one of ours, so it counts toward completion.
  std::size_t shed = 0;
  std::vector<std::string> lines;
  const Clock::time_point give_up =
      log.back().due + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(kTimeoutS));
  while ((next < count || answered + shed < count) &&
         Clock::now() < give_up) {
    Clock::time_point now = Clock::now();
    while (next < count && log[next].due <= now) {
      Sent& s = log[next];
      s.method = mix.next(first_id + next, &s.line);
      s.min_generation = acked_write_generation;
      st.connections[s.connection]->send_line(s.line);
      s.sent = Clock::now();
      ++next;
      now = s.sent;
    }
    const Clock::time_point wake = next < count ? log[next].due : give_up;
    const double wait_s =
        std::chrono::duration<double>(wake - Clock::now()).count();
    timespec ts{};
    if (wait_s > 0) {
      ts.tv_sec = static_cast<time_t>(wait_s);
      ts.tv_nsec = static_cast<long>((wait_s - static_cast<double>(ts.tv_sec)) * 1e9);
    }
    if (ppoll(fds.data(), fds.size(), &ts, nullptr) <= 0) continue;
    const Clock::time_point got = Clock::now();
    for (std::size_t c = 0; c < fds.size(); ++c) {
      if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      lines.clear();
      if (!st.connections[c]->read_lines(lines)) {
        throw std::runtime_error("server closed a connection");
      }
      for (const std::string& line : lines) {
        if (line.find("\"id\":null") != std::string::npos) {
          ++shed;
          continue;
        }
        const long long id = field(line, "id");
        if (id < static_cast<long long>(first_id) ||
            id >= static_cast<long long>(first_id + count)) {
          continue;  // a late reply to an earlier step
        }
        Sent& s = log[static_cast<std::size_t>(id) - first_id];
        if (s.answered) continue;
        s.answered = true;
        s.done = got;
        s.ok = line.find("\"ok\":true") != std::string::npos;
        s.generation = static_cast<std::uint64_t>(field(line, "generation"));
        if (s.ok && is_write(s.method)) {
          acked_write_generation =
              std::max(acked_write_generation, s.generation);
        }
        if (keep_replies) s.reply = line;
        ++answered;
      }
    }
  }
  *next_id += count;
  return log;
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct StepSummary {
  std::vector<double> read_ms;
  std::vector<double> write_ms;
  std::vector<double> late_ms;
  std::uint64_t failed = 0;
};

/// Latencies from the due time; a failed or unanswered request counts as
/// missing the limit (an infinite latency) and as a failure.
StepSummary summarize(const std::vector<Sent>& log) {
  StepSummary s;
  for (const Sent& r : log) {
    s.late_ms.push_back(ms_between(r.due, r.sent));
    const bool good = r.answered && r.ok;
    if (!good) ++s.failed;
    const double ms = good ? ms_between(r.due, r.done) : INFINITY;
    (is_write(r.method) ? s.write_ms : s.read_ms).push_back(ms);
  }
  return s;
}

/// Schema checks on every reply of a step.
void validate(const std::vector<Sent>& log, std::uint64_t first_id,
              Outcome& out) {
  std::size_t bad = 0;
  std::size_t stale = 0;
  for (std::size_t i = 0; i < log.size(); ++i) {
    const Sent& s = log[i];
    if (!s.answered) continue;  // counted as failed already
    if (s.generation < s.min_generation) ++stale;
    try {
      const obs::json::Value v = obs::json::parse(s.reply);
      const obs::json::Value* id = v.find("id");
      const obs::json::Value* ok = v.find("ok");
      const obs::json::Value* gen = v.find("generation");
      const obs::json::Value* result = v.find("result");
      bool good = id != nullptr && id->is_number() &&
                  id->as_number() == static_cast<double>(first_id + i) &&
                  ok != nullptr && ok->is_bool() && ok->as_bool() &&
                  gen != nullptr && gen->is_number() && result != nullptr &&
                  result->is_object();
      if (good) {
        switch (s.method) {
          case Method::Analyze: {
            const obs::json::Value* d = result->find("critical_delay");
            const obs::json::Value* f = result->find("failed_stages");
            good = d != nullptr && d->is_number() && d->as_number() > 0 &&
                   f != nullptr && f->is_number() && f->as_number() == 0;
            break;
          }
          case Method::WorstPaths: {
            const obs::json::Value* p = result->find("paths");
            good = p != nullptr && p->is_array() && p->size() == 10;
            break;
          }
          case Method::Stats:
            good = result->find("cache") != nullptr &&
                   result->find("server") != nullptr;
            break;
          case Method::SetValue:
          case Method::SetGate: {
            const obs::json::Value* a = result->find("applied");
            good = a != nullptr && a->is_bool() && a->as_bool();
            break;
          }
        }
      }
      if (!good) ++bad;
    } catch (const std::exception&) {
      ++bad;
    }
  }
  out.check(bad == 0, std::to_string(bad) + " replies failed the schema check");
  out.check(stale == 0, std::to_string(stale) +
                            " reads saw a generation older than an "
                            "acknowledged write");
}

/// Replay `log` through handle_line on two fresh stores, untraced and
/// traced in alternation, so both see the same requests in the same
/// order.  Fills per-request handle times (ms).
struct Replay {
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  double traced_wall = 0.0;  // replay loop wall minus its untraced calls
  Spans spans;
  std::uint64_t writes = 0;
  timing::Session::CacheStats cache;
};

Replay replay(const timing::Design& design, const std::vector<Sent>& log) {
  Replay r;
  timing::SnapshotStore plain(design, serve_analysis());
  timing::SnapshotStore traced(design, serve_analysis());
  serve::handle_line(plain, R"({"id":0,"method":"analyze"})");
  serve::handle_line(traced, R"({"id":0,"method":"analyze"})");
  const timing::Session::CacheStats before = traced.cache_stats();
  const Clock::time_point start = Clock::now();
  double untraced_total = 0.0;
  for (const Sent& s : log) {
    Clock::time_point t0 = Clock::now();
    serve::handle_line(plain, s.line);
    const double plain_s = seconds_since(t0);
    r.untraced_ms.push_back(plain_s * 1e3);
    untraced_total += plain_s;

    obs::set_tracing(true);
    t0 = Clock::now();
    timed(&r.spans,
          std::string("serve.handle_us.") +
              kMethodNames[static_cast<int>(s.method)],
          [&] { serve::handle_line(traced, s.line); });
    const double took = seconds_since(t0);
    obs::set_tracing(false);
    r.traced_ms.push_back(took * 1e3);
    if (is_write(s.method)) ++r.writes;
  }
  // The traced workload's wall: the replay loop minus its untraced half.
  r.traced_wall = seconds_since(start) - untraced_total;
  const timing::Session::CacheStats after = traced.cache_stats();
  r.cache.hits = after.hits - before.hits;
  r.cache.misses = after.misses - before.misses;
  r.cache.evictions = after.evictions - before.evictions;
  return r;
}

}  // namespace

Outcome run_serve_mixed(const Args& args) {
  Outcome out;
  const DesignSpec spec = serve_spec(args.smoke);
  double setup_s = 0.0;
  // Set-up: generate and parse the design, start the daemon, connect,
  // and warm it with one request of each read kind per connection.
  auto st = repeated_setup(&setup_s, [&] {
    auto s = std::make_unique<State>();
    audit::DesignParse parse =
        audit::parse_design(design_text(spec, args.seed), "serve.design");
    if (!parse.design) throw std::runtime_error("serve design does not parse");
    s->design = std::move(*parse.design);
    s->server = std::make_unique<serve::Server>(s->design, serve_analysis(),
                                                serve_options());
    s->server->start();
    for (std::size_t c = 0; c < kConnections; ++c) {
      s->connections.push_back(
          std::make_unique<Connection>(s->server->tcp_port()));
    }
    for (const auto& c : s->connections) {
      c->roundtrip(R"({"id":0,"method":"analyze"})");
      c->roundtrip(R"({"id":0,"method":"worst_paths","params":{"k":10}})");
      c->roundtrip(R"({"id":0,"method":"stats"})");
    }
    return s;
  });

  Mix mix(st->design, args.seed);
  Rng arrivals(args.seed ^ 0xa771ULL);
  std::uint64_t next_id = 1;
  const double base_rate = args.smoke ? 100.0 : 300.0;
  const std::uint64_t base_first_id = next_id;
  const std::vector<Sent> base = run_step(*st, mix, arrivals, &next_id,
                                          base_rate, 0.4 * args.seconds, true);
  const StepSummary b = summarize(base);
  // Memory while serving the base rate: the ladder's extra writes would
  // grow the stage cache by however far the ladder climbs.
  const double rss_mb = peak_rss_mb();
  out.attempted += base.size();
  out.failed += b.failed;
  validate(base, base_first_id, out);

  if (!args.trace) {
    // The rate ladder: geometric rungs (x1.25) from twice the base rate,
    // each 10% of --seconds, up to the first rung that fails (read p99
    // over the limit, or a failed request); then three bisection rungs
    // narrow the last passing / first failing bracket to 1.25^(1/8).
    // Overload often fails a rung by shedding, which leaves no p99 to
    // interpolate, so without the bisection the result would snap to a
    // ladder rate.
    double lo = base_rate;
    double lo_p99 = percentile(b.read_ms, 0.99);
    double hi = 0.0;
    double hi_p99 = 0.0;
    const auto rung = [&](double rate) {
      const std::vector<Sent> log = run_step(
          *st, mix, arrivals, &next_id, rate, 0.1 * args.seconds, false);
      const StepSummary s = summarize(log);
      const double p99 = percentile(s.read_ms, 0.99);
      std::fprintf(stderr, "perfbench: serve rung %.0f/s read p99 %.3f ms\n",
                   rate, p99);
      if (p99 <= kReadLimitMs && s.failed == 0) {
        out.attempted += log.size();
        lo = rate;
        lo_p99 = p99;
      } else {
        hi = rate;
        hi_p99 = p99;
      }
    };
    for (double rate = 2 * base_rate; hi == 0.0 && rate < 1e6;
         rate *= 1.25) {
      rung(rate);
    }
    for (int i = 0; i < 3 && hi > 0.0; ++i) rung(std::sqrt(lo * hi));
    // Interpolate (log-log) only across a real p99 crossing.
    double max_qps = lo;
    if (std::isfinite(hi_p99) && hi_p99 > kReadLimitMs &&
        lo_p99 < kReadLimitMs) {
      max_qps *= std::pow(hi / lo, std::log(kReadLimitMs / lo_p99) /
                                       std::log(hi_p99 / lo_p99));
    }
    out.metric("setup_s", setup_s, "s");
    out.metric("peak_rss_mb", rss_mb, "MB");
    out.metric("throughput_per_s", max_qps, "1/s");
    out.metric("latency_ms.p50", percentile(b.read_ms, 0.5), "ms");
    out.metric("latency_ms.p90", percentile(b.read_ms, 0.9), "ms");
    return out;
  }

  const Replay r = replay(st->design, base);
  const auto handle_us = [&](Method m) {
    const std::vector<double>* samples = r.spans.samples(
        std::string("serve.handle_us.") + kMethodNames[static_cast<int>(m)]);
    return samples == nullptr ? 0.0 : median(*samples) * 1e6;
  };
  std::vector<double> transport;
  for (std::size_t i = 0; i < base.size(); ++i) {
    if (!is_write(base[i].method) && base[i].answered) {
      transport.push_back(ms_between(base[i].sent, base[i].done) -
                          r.untraced_ms[i]);
    }
  }
  const serve::ServeCounters counters = st->server->counters();
  double sum_untraced = 0.0;
  double sum_traced = 0.0;
  for (double v : r.untraced_ms) sum_untraced += v;
  for (double v : r.traced_ms) sum_traced += v;
  out.metric("serve.read_ms.p50", percentile(b.read_ms, 0.5), "ms");
  out.metric("serve.read_ms.p99", percentile(b.read_ms, 0.99), "ms");
  out.metric("serve.write_ms.p50", percentile(b.write_ms, 0.5), "ms");
  out.metric("serve.write_ms.p99", percentile(b.write_ms, 0.99), "ms");
  for (Method m : {Method::Analyze, Method::WorstPaths, Method::Stats,
                   Method::SetValue, Method::SetGate}) {
    out.metric(std::string("serve.handle_us.") +
                   kMethodNames[static_cast<int>(m)],
               handle_us(m), "us");
  }
  out.metric("serve.transport_ms.p50", median(transport), "ms");
  out.metric("serve.shed_ratio",
             static_cast<double>(counters.shed_queue + counters.shed_inflight) /
                 static_cast<double>(std::max<std::uint64_t>(1, counters.requests)),
             "ratio");
  out.metric("serve.gen_late_ms.p99", percentile(b.late_ms, 0.99), "ms");
  out.metric("timing.cache_hit_ratio",
             static_cast<double>(r.cache.hits) /
                 static_cast<double>(
                     std::max<std::uint64_t>(1, r.cache.hits + r.cache.misses)),
             "ratio");
  out.metric("timing.evictions_per_edit",
             static_cast<double>(r.cache.evictions) /
                 static_cast<double>(std::max<std::uint64_t>(1, r.writes)),
             "count");
  out.metric("obs.trace_overhead_ratio", sum_traced / sum_untraced - 1.0,
             "ratio");
  out.metric("bench.span_coverage", r.spans.total() / r.traced_wall, "ratio");
  return out;
}

}  // namespace perfbench
