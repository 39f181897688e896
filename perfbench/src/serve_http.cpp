// serve-http: open-loop HTTP serving with a concurrent streaming session,
// then a closed-loop saturation phase.
//
// A seeded Poisson schedule at one nominal rate sends POST /v1/infer through
// net::GatewayServer to serve::InferenceServer (warm weights, 3 engines,
// 3 tenants with Zipf weights); bodies are event::encode_stream encodings of
// short synthetic DVS-Gesture windows on the gesture network. One generator
// thread drives the infer connections; latency counts from each request's
// due time to its last response byte. Meanwhile a second thread feeds a
// streaming session (pipeline-mode model, 16x16 gesture chunks) on a fixed
// period, rotating the session before its 256-step clock runs out. The
// saturation phase then has every infer connection send its next request as
// soon as the previous one returns; its throughput and latencies are the
// end-to-end metrics (see NOTES.md for why the open-loop figures are not).
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstring>
#include <deque>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "common/rng.h"
#include "data/synthetic.h"
#include "ecnn/batch_runner.h"
#include "ecnn/engine_pool.h"
#include "event/event_io.h"
#include "harness.h"
#include "net/client.h"
#include "net/gateway.h"
#include "networks.h"
#include "obs/run_profile.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "serve/session.h"

namespace perfbench {

using namespace sne;

namespace {

constexpr double kNominalRps = 100.0;        // offered load, ~1/3 of saturation
constexpr double kChunkPeriodMs = 10.0;      // session feed schedule
constexpr std::uint16_t kWindowSteps = 16;   // infer body: gesture window
// Enough distinct windows that the heaviest few percent of requests (the
// tail) are not a handful of seed-specific windows.
constexpr std::uint16_t kWindowsPerClass = 32;
constexpr std::uint16_t kChunkSteps = 8;     // session chunk length
constexpr std::uint16_t kHorizon = 256;      // session clock (event::kMaxTime + 1)
constexpr std::size_t kChunksPerSession = kHorizon / kChunkSteps;
constexpr unsigned kEngines = 3;
constexpr std::size_t kWarmupRequests = 24;
constexpr std::size_t kTailBlock = 1000;  // saturation p99 per 1000 requests
const char* const kTenants[] = {"t0", "t1", "t2"};
constexpr unsigned kTenantWeights[] = {6, 3, 2};  // Zipf: 1, 1/2, 1/3

struct Reply {
  int status = 0;
  std::string body;
};

/// Pops one complete Content-Length-framed response off the front of `buf`;
/// false while it is incomplete.
bool take_reply(std::string& buf, Reply& out) {
  const std::size_t hdr_end = buf.find("\r\n\r\n");
  if (hdr_end == std::string::npos) return false;
  std::size_t content_length = 0;
  out = Reply{};
  std::size_t pos = buf.find("\r\n");
  const std::size_t sp = buf.find(' ');
  if (sp != std::string::npos && sp < pos) out.status = std::atoi(buf.c_str() + sp + 1);
  while (pos < hdr_end) {
    const std::size_t eol = buf.find("\r\n", pos + 2);
    std::string line = buf.substr(pos + 2, eol - pos - 2);
    pos = eol;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::string name = line.substr(0, colon);
    for (char& c : name) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    if (name == "content-length")
      content_length = std::strtoull(line.c_str() + colon + 1, nullptr, 10);
  }
  if (buf.size() < hdr_end + 4 + content_length) return false;
  out.body = buf.substr(hdr_end + 4, content_length);
  buf.erase(0, hdr_end + 4 + content_length);
  return true;
}

/// One keep-alive loopback connection driven by the generator's poll loop.
struct Wire {
  int fd = -1;
  bool busy = false;
  std::size_t req = 0;    ///< request index in its phase
  std::size_t input = 0;  ///< gesture window the reply must match
  Clock::time_point sent;
  std::string in;

  explicit Wire(std::uint16_t port) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) throw std::runtime_error("socket failed");
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0) {
      ::close(fd);
      throw std::runtime_error("connect failed");
    }
  }
  ~Wire() { ::close(fd); }
  Wire(const Wire&) = delete;
  Wire& operator=(const Wire&) = delete;

  void send_all(const std::string& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        throw std::runtime_error("send failed");
      }
      off += static_cast<std::size_t>(n);
    }
  }
  /// Reads what is available; true once a whole reply is in `out`.
  bool on_readable(Reply& out) {
    char tmp[16384];
    const ssize_t n = ::recv(fd, tmp, sizeof tmp, 0);
    if (n == 0) throw std::runtime_error("gateway closed a connection");
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN) return false;
      throw std::runtime_error("recv failed");
    }
    in.append(tmp, static_cast<std::size_t>(n));
    return take_reply(in, out);
  }
};

std::string infer_request(const std::string& body, unsigned tenant) {
  std::string m = "POST /v1/infer?model=gesture HTTP/1.1\r\nHost: sne\r\n";
  m += "Authorization: Bearer tok-" + std::string(kTenants[tenant]) + "\r\n";
  m += "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n";
  m += body;
  return m;
}

/// The canonical spikes an encoded response body carries (empty + false on a
/// malformed body).
bool decode_spikes(const std::string& body, std::vector<event::Event>& out) {
  ScopedSpan span("event.decode");
  try {
    out = canonical_spikes(event::decode_stream(body.data(), body.size()));
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

struct Plan {
  std::vector<double> due_s;       ///< Poisson offsets
  std::vector<std::size_t> input;  ///< gesture window per request
  std::vector<unsigned> tenant;    ///< Zipf-weighted tenant per request
};

struct ChunkRef {
  std::vector<event::Event> spikes;
  std::uint64_t cycles = 0;
};

struct Stack {
  serve::ModelRegistry registry;
  std::unique_ptr<serve::InferenceServer> server;
  std::unique_ptr<net::GatewayServer> gateway;
  ~Stack() {
    if (gateway) gateway->shutdown();
    gateway.reset();
    server.reset();
  }
};

struct Phase {
  std::vector<double> latency_ms;    ///< due -> last byte, per request index
  std::vector<double> exchange_ms;   ///< send -> last byte, per request index
  std::vector<double> lag_ms;        ///< generator lateness
  std::vector<double> done_s;        ///< completion offsets from the start
};

}  // namespace

Result run_serve_http(const Args& a) {
  const core::SneConfig hw = design_point();
  const unsigned conns = std::max(1u, std::min(host_cpus(), 4u) - 1);  // + session

  data::Dataset windows, chunks;
  std::unique_ptr<Stack> stack;
  double gen_ms = 0.0;
  const double setup_s = median_setup_s([&] {
    stack.reset();
    const auto t0 = Clock::now();
    data::GestureConfig wc;
    wc.timesteps = kWindowSteps;
    wc.samples_per_class = kWindowsPerClass;
    wc.seed = a.seed * 7919 + 1;
    windows = data::make_gesture_dataset(wc);
    data::GestureConfig cc;
    cc.width = 16;
    cc.height = 16;
    cc.timesteps = kChunkSteps;
    cc.samples_per_class = 3;
    cc.blob_rate = 4.0;
    cc.seed = a.seed * 7919 + 2;
    chunks = data::make_gesture_dataset(cc);
    chunks.samples.resize(kChunksPerSession);
    gen_ms = ms_since(t0);

    stack = std::make_unique<Stack>();
    stack->registry.put("gesture", gesture_network());
    stack->registry.put("session", session_network());
    serve::ServeOptions so;
    so.engines = kEngines;
    so.warm_weights = true;
    stack->server = std::make_unique<serve::InferenceServer>(stack->registry, hw, so);
    net::GatewayConfig gc;
    gc.workers = conns + 1;
    gc.max_connections = 16;
    for (unsigned t = 0; t < 3; ++t) {
      serve::TenantConfig tc;
      tc.weight = kTenantWeights[t];
      tc.max_queue = 256;
      stack->server->register_tenant(kTenants[t], tc);
      gc.bearer_tokens["tok-" + std::string(kTenants[t])] = kTenants[t];
    }
    serve::TenantConfig st;
    st.max_sessions = 1;
    stack->server->register_tenant("stream", st);
    gc.bearer_tokens["tok-stream"] = "stream";
    stack->gateway = std::make_unique<net::GatewayServer>(*stack->server, gc);
  });
  serve::InferenceServer& server = *stack->server;
  const std::uint16_t port = stack->gateway->port();

  // References, computed in process: cold strict-tier outputs per window,
  // and one standalone session's chunk sequence.
  std::vector<event::EventStream> window_inputs;
  for (const auto& s : windows.samples) window_inputs.push_back(s.stream);
  std::vector<std::vector<event::Event>> ref;
  {
    ecnn::BatchRunner br(hw, *stack->registry.get("gesture"));
    for (const auto& s : br.run(window_inputs)) ref.push_back(canonical_spikes(s.final_output));
  }
  std::vector<ChunkRef> chunk_ref;
  {
    ecnn::EnginePool pool(hw, 0, ecnn::EnginePoolOptions{});
    serve::SessionOptions so;
    so.horizon_timesteps = kHorizon;
    serve::StreamingSession s(pool, stack->registry.get("session"), so);
    for (const auto& c : chunks.samples) {
      const serve::Ticket t = s.feed(c.stream);
      const auto& rs = t.wait();
      chunk_ref.push_back({canonical_spikes(rs.final_output), rs.cycles});
    }
    s.close();
  }

  // The seeded open-loop schedule.
  const std::size_t n_nominal = static_cast<std::size_t>(
      kNominalRps * a.seconds * (a.trace ? 0.3 : 0.4));
  Plan plan;
  plan.due_s = poisson_schedule(a.seed, kNominalRps, n_nominal);
  {
    Rng rng(a.seed ^ 0xC0FFEEull);
    for (std::size_t i = 0; i < n_nominal; ++i) {
      plan.input.push_back(static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(window_inputs.size()) - 1)));
      const std::int64_t w = rng.uniform_int(0, 10);  // 6 : 3 : 2
      plan.tenant.push_back(w < 6 ? 0u : w < 9 ? 1u : 2u);
    }
  }

  Result r;
  // A generator that falls this far behind its schedule no longer offers
  // the nominal load, so the run is invalid.
  constexpr double kMaxLagMs = 50.0;
  const auto check_lag = [&](const Phase& ph) {
    const Tail lag = tail_of(ph.lag_ms);
    if (lag.value > kMaxLagMs) {
      std::cout << "INVALID: generator lag " << lag.label() << " " << lag.value << " ms\n";
      r.correct = false;
    }
    return lag;
  };
  std::mutex r_m;  // the generator and the session feeder both tally
  std::map<std::string, std::size_t> failures;
  const auto tally = [&](bool ok, const char* what) {
    std::lock_guard<std::mutex> lk(r_m);
    r.check(ok);
    if (!ok) ++failures[what];
  };
  const auto check_reply = [&](int status, const std::string& body, std::size_t k) {
    std::vector<event::Event> got;
    return status == 200 && decode_spikes(body, got) && got == ref[k];
  };

  // Runs one phase. Open loop (`open`): request i goes out at its due time
  // on the first free connection. Closed loop: every free connection sends
  // immediately, for `closed_s` seconds.
  const auto drive = [&](bool open, double closed_s) {
    Phase ph;
    std::vector<std::unique_ptr<Wire>> wires;
    for (unsigned c = 0; c < conns; ++c) wires.push_back(std::make_unique<Wire>(port));
    const std::size_t n = open ? plan.due_s.size() : 0;
    ph.latency_ms.assign(n, 0.0);
    ph.exchange_ms.assign(n, 0.0);
    std::deque<std::size_t> ready;  // due (or closed-loop) requests not yet sent
    std::vector<Clock::time_point> due;
    std::size_t next = 0, inflight = 0;
    const auto t0 = Clock::now();
    const auto end = t0 + std::chrono::duration<double>(closed_s);
    Rng pick(a.seed ^ 0x5A7u);
    const auto due_at = [&](std::size_t i) {
      return t0 + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(plan.due_s[i]));
    };
    for (;;) {
      const auto now = Clock::now();
      if (open) {
        while (next < n && due_at(next) <= now) {
          ph.lag_ms.push_back(ms_between(due_at(next), now));
          ready.push_back(next++);
        }
        if (next == n && ready.empty() && inflight == 0) break;
      } else {
        if (now >= end && inflight == 0) break;
        if (now < end) {
          for (std::size_t free = conns - inflight - ready.size(); free > 0; --free) {
            ready.push_back(due.size());
            due.push_back(now);
          }
        }
      }
      for (auto& w : wires) {
        if (ready.empty()) break;
        if (w->busy) continue;
        w->busy = true;
        w->req = ready.front();
        ready.pop_front();
        ++inflight;
        const std::size_t k = open ? plan.input[w->req] : static_cast<std::size_t>(
            pick.uniform_int(0, static_cast<std::int64_t>(window_inputs.size()) - 1));
        if (!open) due[w->req] = Clock::now();
        std::string body;
        {
          ScopedSpan span("event.encode", w->req);
          body = event::encode_stream(window_inputs[k]);
        }
        w->sent = Clock::now();
        w->send_all(infer_request(body, open ? plan.tenant[w->req] : w->req % 3));
        w->input = k;
      }
      std::vector<pollfd> pfd;
      for (auto& w : wires) pfd.push_back({w->fd, static_cast<short>(w->busy ? POLLIN : 0), 0});
      int timeout_ms = 5;
      if (open && next < n)
        timeout_ms = std::clamp(static_cast<int>(ms_between(Clock::now(), due_at(next))), 0, 5);
      if (::poll(pfd.data(), pfd.size(), timeout_ms) <= 0) continue;
      for (std::size_t c = 0; c < wires.size(); ++c) {
        Wire& w = *wires[c];
        Reply rep;
        if (!(pfd[c].revents & (POLLIN | POLLHUP | POLLERR)) || !w.on_readable(rep)) continue;
        const auto done = Clock::now();
        const std::size_t i = w.req;
        w.busy = false;
        --inflight;
        tally(check_reply(rep.status, rep.body, w.input), open ? "http infer" : "http saturation infer");
        ph.done_s.push_back(ms_between(t0, done) * 1e-3);
        if (open) {
          ph.latency_ms[i] = ms_between(due_at(i), done);
          ph.exchange_ms[i] = ms_between(w.sent, done);
          record_span("net.http.infer", i, w.sent, done);
        } else {
          ph.latency_ms.push_back(ms_between(due[i], done));
        }
      }
    }
    return ph;
  };

  // The session side-stream over HTTP: chunks on a fixed period, rotating
  // the session (close, reopen) before its clock reaches the horizon.
  std::atomic<bool> stop_chunks{false};
  std::vector<double> chunk_ms;
  const auto feed_http = [&] {
    try {
      net::HttpClient cl("127.0.0.1", port);
      const std::vector<std::pair<std::string, std::string>> auth = {
          {"Authorization", "Bearer tok-stream"}};
      const auto t0 = Clock::now();
      std::size_t j = 0;
      while (!stop_chunks.load()) {
        auto h = auth;
        h.emplace_back("X-Sne-Horizon", std::to_string(kHorizon));
        const auto open = cl.request("POST", "/v1/session/open?model=session", h);
        if (open.status != 200) {
          tally(false, "http session open");
          break;
        }
        const std::string base = "/v1/session/" + open.body;
        for (std::size_t c = 0; c < kChunksPerSession && !stop_chunks.load(); ++c, ++j) {
          const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double, std::milli>(kChunkPeriodMs * j));
          std::this_thread::sleep_until(due);
          const auto sent = Clock::now();
          const auto rep = cl.request("POST", base + "/feed", auth,
                                      event::encode_stream(chunks.samples[c].stream));
          const auto done = Clock::now();
          chunk_ms.push_back(ms_between(due, done));
          record_span("net.http.chunk", j, sent, done);
          std::vector<event::Event> got;
          const std::string* cyc = rep.header("x-sne-cycles");
          tally(rep.status == 200 && decode_spikes(rep.body, got) &&
                  got == chunk_ref[c].spikes && cyc != nullptr &&
                  std::strtoull(cyc->c_str(), nullptr, 10) == chunk_ref[c].cycles,
                "http session chunk");
        }
        if (cl.request("POST", base + "/close", auth).status != 200) tally(false, "http session close");
      }
    } catch (const std::exception&) {
      tally(false, "http session transport");
    }
  };
  const auto nominal_with_session = [&] {
    stop_chunks = false;
    chunk_ms.clear();
    std::thread feeder(feed_http);
    Phase ph;
    try {
      ph = drive(true, 0.0);
    } catch (...) {
      stop_chunks = true;
      feeder.join();
      throw;
    }
    stop_chunks = true;
    feeder.join();
    return ph;
  };

  // Untimed warm-up: the first kWarmupRequests windows over HTTP (tenants
  // rotating), plus one whole session lifetime, so engines, plan caches and
  // weight residency are filled before timing.
  {
    net::HttpClient cl("127.0.0.1", port);
    for (std::size_t k = 0; k < kWarmupRequests; ++k) {
      const auto rep = cl.request(
          "POST", "/v1/infer?model=gesture",
          {{"Authorization", "Bearer tok-" + std::string(kTenants[k % 3])}},
          event::encode_stream(window_inputs[k]));
      if (!check_reply(rep.status, rep.body, k)) r.correct = false;
    }
    const std::vector<std::pair<std::string, std::string>> auth = {
        {"Authorization", "Bearer tok-stream"}};
    auto h = auth;
    h.emplace_back("X-Sne-Horizon", std::to_string(kHorizon));
    const std::string base =
        "/v1/session/" + cl.request("POST", "/v1/session/open?model=session", h).body;
    for (std::size_t c = 0; c < kChunksPerSession; ++c) {
      const auto rep = cl.request("POST", base + "/feed", auth,
                                  event::encode_stream(chunks.samples[c].stream));
      std::vector<event::Event> got;
      if (rep.status != 200 || !decode_spikes(rep.body, got) || got != chunk_ref[c].spikes)
        r.correct = false;
    }
    if (cl.request("POST", base + "/close", auth).status != 200) r.correct = false;
  }

  Values v;
  v["setup_s"] = setup_s;
  v["data.gesture_gen_ms"] = gen_ms;
  const auto report_chunks = [&](const char* what) {
    const Tail t = tail_of(chunk_ms);
    std::cout << what << ": session chunk p50 " << median(chunk_ms) << " ms, "
              << t.label() << " " << t.value << " ms\n";
  };

  if (!a.trace) {
    // The end-to-end latencies come from the saturation phase: on a shared
    // host the open-loop figures at the nominal rate (printed below, and
    // per layer in traced runs) spread several times wider between runs.
    const Phase nominal = nominal_with_session();
    const Tail tail = tail_of(nominal.latency_ms);
    const Tail lag = check_lag(nominal);
    const Phase sat = drive(false, a.seconds * 0.6);
    const Tail sat_tail = block_tail_of(sat.latency_ms, kTailBlock);
    v["op_p50_ms"] = median(sat.latency_ms);
    v["op_tail_ms"] = sat_tail.value;
    // Rate over each run of 64 consecutive completions; the median run is
    // robust to bursts of host interference.
    std::vector<double> rates;
    for (std::size_t i = 64; i < sat.done_s.size(); i += 64)
      rates.push_back(64.0 / (sat.done_s[i] - sat.done_s[i - 64]));
    v["ops_per_s"] = median(rates);
    std::cout << "serve-http nominal " << kNominalRps << " req/s: infer p50 "
              << median(nominal.latency_ms) << " ms, " << tail.label() << " " << tail.value
              << " ms; generator lag " << lag.label() << " " << lag.value << " ms\n";
    report_chunks("serve-http");
    std::cout << "serve-http saturation (" << conns << " connections): "
              << v["ops_per_s"] << " req/s; latency p50 " << v["op_p50_ms"]
              << " ms, median over blocks of " << sat_tail.label() << " "
              << sat_tail.value << " ms\n";
  } else {
    const Phase untraced = nominal_with_session();
    SpanLog::enable();
    const Phase traced = nominal_with_session();
    v["obs.trace_overhead_frac"] = median(traced.latency_ms) / median(untraced.latency_ms) - 1.0;
    v["net.infer_ms_p50"] = median(untraced.latency_ms);
    v["net.infer_ms_tail"] = tail_of(untraced.latency_ms).value;
    check_lag(untraced);
    v["gen.lag_ms_tail"] = check_lag(traced).value;
    v["net.chunk_ms_p50"] = median(chunk_ms);
    v["net.chunk_ms_tail"] = tail_of(chunk_ms).value;
    report_chunks("serve-http traced");

    // In-process replay of the same schedule: submit at the due times,
    // completion latency from the ticket; the session replay feeds the same
    // chunks on the same period under replay profiling.
    std::vector<double> inproc_ms(n_nominal, 0.0);
    obs::RunProfile prof;
    std::size_t prof_n = 0;
    std::vector<double> session_chunk_ms;
    {
      obs::ScopedProfiling profiling;
      std::atomic<bool> stop{false};
      std::thread sess([&] {
        try {
          std::shared_ptr<serve::StreamingSession> s;
          std::size_t j = 0;
          const auto t0 = Clock::now();
          while (!stop.load()) {
            serve::SessionOptions so;
            so.tenant = "stream";
            so.horizon_timesteps = kHorizon;
            {
              ScopedSpan span("serve.session.open");
              s = server.open_session("session", so);
            }
            for (std::size_t c = 0; c < kChunksPerSession && !stop.load(); ++c, ++j) {
              std::this_thread::sleep_until(
                  t0 + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double, std::milli>(kChunkPeriodMs * j)));
              const auto t1 = Clock::now();
              ScopedSpan span("serve.session.chunk", j);
              const serve::Ticket t = s->feed(chunks.samples[c].stream);
              const auto& rs = t.wait();
              session_chunk_ms.push_back(ms_since(t1));
              tally(canonical_spikes(rs.final_output) == chunk_ref[c].spikes &&
                      rs.cycles == chunk_ref[c].cycles,
                    "in-process session chunk");
              prof += rs.profile;
              ++prof_n;
            }
            server.close_session(s);
          }
        } catch (const std::exception&) {
          tally(false, "in-process session");
        }
      });
      std::vector<serve::Ticket> tickets;
      const auto t0 = Clock::now();
      for (std::size_t i = 0; i < n_nominal; ++i) {
        std::this_thread::sleep_until(
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(plan.due_s[i])));
        serve::RequestOptions ro;
        ro.tenant = kTenants[plan.tenant[i]];
        ScopedSpan span("serve.submit", i);
        tickets.push_back(server.submit("gesture", window_inputs[plan.input[i]], ro));
      }
      for (std::size_t i = 0; i < n_nominal; ++i) {
        bool ok = false;
        try {
          ok = canonical_spikes(tickets[i].wait().final_output) == ref[plan.input[i]];
        } catch (const std::exception&) {
        }
        tally(ok, "in-process infer");
        inproc_ms[i] = tickets[i].latency_ms();
      }
      stop = true;
      sess.join();
    }
    SpanLog::disable();

    std::vector<double> front_door;
    for (std::size_t i = 0; i < n_nominal; ++i)
      front_door.push_back(traced.exchange_ms[i] - inproc_ms[i]);
    v["net.front_door_ms_p50"] = median(front_door);
    v["net.front_door_ms_tail"] = tail_of(front_door).value;
    v["serve.submit_us"] = median(SpanLog::durations_ms("serve.submit")) * 1e3;
    v["serve.latency_ms_p50"] = median(inproc_ms);
    v["serve.latency_ms_tail"] = tail_of(inproc_ms).value;
    v["serve.session.open_ms"] = median(SpanLog::durations_ms("serve.session.open"));
    v["serve.session.chunk_ms_p50"] = median(session_chunk_ms);
    v["serve.session.chunk_ms_tail"] = tail_of(session_chunk_ms).value;
    v["event.encode_us"] = median(SpanLog::durations_ms("event.encode")) * 1e3;
    v["event.decode_us"] = median(SpanLog::durations_ms("event.decode")) * 1e3;
    add_profile_metrics(v, prof, prof_n);

    const serve::ServerStats ss = server.stats();
    const net::GatewayStats gs = stack->gateway->stats();
    v["ecnn.pool.warm_pass_ratio"] =
        ss.passes_total ? static_cast<double>(ss.passes_warm) / ss.passes_total : 0.0;
    v["ecnn.pool.warm_lease_ratio"] =
        ss.engine_leases ? static_cast<double>(ss.engine_warm_leases) / ss.engine_leases : 0.0;
    v["ecnn.pool.engines_constructed"] = static_cast<double>(ss.engines_constructed);
    v["serve.queue_depth_peak"] = static_cast<double>(ss.peak_queue_depth);
    v["serve.retried"] = static_cast<double>(ss.retried);
    v["serve.rejected"] = static_cast<double>(ss.rejected);
    v["serve.failed"] = static_cast<double>(ss.failed);
    v["net.responses_5xx"] = static_cast<double>(gs.responses_5xx);
    v["net.dispatch_rejected"] = static_cast<double>(gs.dispatch_rejected);
    v["net.parse_errors"] = static_cast<double>(gs.parse_errors);
    v["net.peak_connections"] = static_cast<double>(gs.peak_connections);
    std::cout << "serve-http traced: infer p50 " << median(untraced.latency_ms)
              << " ms untraced, " << median(traced.latency_ms)
              << " ms traced; in-process p50 " << v["serve.latency_ms_p50"]
              << " ms; front door p50 " << v["net.front_door_ms_p50"] << " ms\n";
  }
  for (const auto& [what, n] : failures)
    std::cout << "FAILED check: " << what << " x" << n << "\n";
  v["ok_frac"] = r.attempted ? 1.0 - static_cast<double>(r.failed) / r.attempted : 0.0;
  v["peak_rss_mb"] = peak_rss_mb();
  emit(r, v, a.trace);
  return r;
}

}  // namespace perfbench
