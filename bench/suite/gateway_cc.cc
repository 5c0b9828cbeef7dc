// gateway-cc: a ServingCc tenant behind the TCP RpcGateway in a forked
// server process, driven over loopback by this process. Set-up is fork +
// tenant start + gateway start + first Ping; then two writer and two
// reader connections (open loop), then the two writers pipelining 32
// mutations each (closed loop); finally a wire snapshot of the labels is
// checked against union-find of every inserted edge.
#include <fcntl.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <sstream>
#include <thread>

#include "common/rng.h"
#include "graph/union_find.h"
#include "net/client.h"
#include "service/gateway.h"
#include "service/serving_cc.h"
#include "serving.h"

namespace sfdf {
namespace suite {
namespace {

constexpr const char* kTenant = "cc";

bool WriteAll(int fd, const std::string& text) {
  size_t done = 0;
  while (done < text.size()) {
    const ssize_t n = ::write(fd, text.data() + done, text.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    done += static_cast<size_t>(n);
  }
  return true;
}

std::string FormatCounters(const Counters& counters) {
  std::ostringstream out;
  out.precision(17);
  for (const auto& [key, value] : counters) out << key << ' ' << value << '\n';
  return out.str();
}

/// The gateway-cc server process: ServiceHost (2 engine workers) + one
/// ServingCc tenant + RpcGateway (2 dispatch threads). Announces
/// `ready <port> <cold_ms>`, then answers one-byte commands on `ctl_fd`:
///   S — current service counters;
///   T — arm tracing (the server's spans are folded here);
///   Q — stop, report final counters and spans, exit.
/// Every answer is `key value` lines ending in `end`.
[[noreturn]] void ServeChild(const Config& config, int64_t n, int ctl_fd,
                             int report_fd) {
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  int exit_code = 1;
  {
    ServiceHost host(ServiceHost::Options{.workers = 2});
    ServingCc::Options options;
    options.num_vertices = n;
    options.service.max_batch = 256;
    options.service.max_linger = std::chrono::milliseconds(1);
    options.service.max_pending_mutations = 1 << 16;
    const Clock::time_point t0 = Clock::now();
    auto tenant = ServingCc::StartOn(&host, kTenant, options);
    const double cold_ms = Millis(t0, Clock::now());
    // The tenant owns state its resident plan flushes into: stop the host
    // before the tenant is destroyed on every path.
    struct StopGuard {
      ServiceHost* host;
      ~StopGuard() {
        Status ignored = host->StopAll();
        (void)ignored;
      }
    } stop_guard{&host};
    GatewayOptions gateway_options;
    gateway_options.dispatch_threads = 2;
    auto gateway = tenant.ok() ? RpcGateway::Start(&host, gateway_options)
                               : Result<std::unique_ptr<RpcGateway>>(
                                     tenant.status());
    if (!gateway.ok()) {
      WriteAll(report_fd, "error " + gateway.status().ToString() + "\n");
      ::_exit(1);
    }
    IterationService& service = (*tenant)->service();
    WriteAll(report_fd, "ready " + std::to_string((*gateway)->port()) + " " +
                            std::to_string(cold_ms) + "\n");

    std::mutex mutex;
    std::condition_variable cv;
    bool stopping = false;
    double depth_max = 0;
    std::thread sampler([&] {
      std::unique_lock<std::mutex> lock(mutex);
      while (!cv.wait_for(lock, std::chrono::milliseconds(100),
                          [&] { return stopping; })) {
        depth_max = std::max(
            depth_max,
            static_cast<double>(service.stats().admission_queue_depth));
      }
    });
    std::unique_ptr<TraceWindow> window;
    char command = 0;
    while (::read(ctl_fd, &command, 1) == 1 && command != 'Q') {
      if (command == 'S') {
        Counters counters = ServiceCounters(service);
        {
          std::lock_guard<std::mutex> lock(mutex);
          counters["depth_max"] = depth_max;
        }
        WriteAll(report_fd, FormatCounters(counters) + "end\n");
      } else if (command == 'T' && !window) {
        window = std::make_unique<TraceWindow>();
      }
    }
    {
      std::lock_guard<std::mutex> lock(mutex);
      stopping = true;
    }
    cv.notify_all();
    sampler.join();
    TraceCollector collected;
    if (window) collected = window->Finish();
    const bool stopped = (*gateway)->Stop().ok() && host.StopAll().ok();
    std::string out = FormatCounters(FinalCounters(service.final_result()));
    for (const auto& [name, span] : Summarize(FoldSelfTime(collected))) {
      std::ostringstream line;
      line.precision(17);
      line << "span " << name << ' ' << span.count << ' ' << span.total_ms
           << ' ' << span.self_ms << ' ' << span.p50_ms << ' ' << span.p90_ms
           << '\n';
      out += line.str();
    }
    out += "lapped " + std::to_string(collected.lapped_windows()) + "\n";
    const std::string path = TracePath(config, "-server");
    if (window && !path.empty()) WriteChromeTrace(collected, path);
    WriteAll(report_fd, out + "end\n");
    exit_code = stopped ? 0 : 1;
  }
  ::_exit(exit_code);
}

/// The parent's handle on one server process.
class ServerProcess {
 public:
  /// Forks the server; false when it did not come up.
  bool Start(const Config& config, int64_t n) {
    int ctl[2];
    int rep[2];
    if (::pipe2(ctl, O_CLOEXEC) != 0) return false;
    if (::pipe2(rep, O_CLOEXEC) != 0) {
      ::close(ctl[0]);
      ::close(ctl[1]);
      return false;
    }
    std::fflush(stdout);
    std::fflush(stderr);
    pid_ = ::fork();
    if (pid_ == 0) {
      ::close(ctl[1]);
      ::close(rep[0]);
      ServeChild(config, n, ctl[0], rep[1]);
    }
    ::close(ctl[0]);
    ::close(rep[1]);
    ctl_fd_ = ctl[1];
    report_ = ::fdopen(rep[0], "r");
    if (pid_ < 0 || report_ == nullptr) return false;
    std::string line;
    if (!ReadLine(&line)) return false;
    std::istringstream in(line);
    std::string word;
    in >> word >> port_ >> cold_ms_;
    return word == "ready";
  }

  ~ServerProcess() { Stop(); }
  ServerProcess() = default;
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  uint16_t port() const { return port_; }
  double cold_ms() const { return cold_ms_; }

  Counters Stats() {
    Counters counters;
    if (Send('S')) ReadBlock(&counters, nullptr, nullptr);
    return counters;
  }

  bool ArmTrace() { return Send('T'); }

  /// Stops the server and reaps it. Fills the final block and the
  /// server's peak RSS; false when it did not exit cleanly.
  bool Stop(Counters* final_counters = nullptr, SpanSummaries* spans = nullptr,
            int* lapped = nullptr, double* peak_rss_mb = nullptr) {
    if (pid_ <= 0) return false;
    Counters counters;
    SpanSummaries summaries;
    int lapped_windows = 0;
    if (Send('Q')) ReadBlock(&counters, &summaries, &lapped_windows);
    ::close(ctl_fd_);
    int status = 0;
    struct rusage usage {};
    while (::wait4(pid_, &status, 0, &usage) < 0 && errno == EINTR) {
    }
    pid_ = -1;
    if (report_ != nullptr) std::fclose(report_);
    report_ = nullptr;
    if (final_counters != nullptr) *final_counters = counters;
    if (spans != nullptr) *spans = summaries;
    if (lapped != nullptr) *lapped = lapped_windows;
    if (peak_rss_mb != nullptr) {
      *peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
    }
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

 private:
  bool Send(char command) { return ::write(ctl_fd_, &command, 1) == 1; }

  bool ReadLine(std::string* line) {
    char* buffer = nullptr;
    size_t capacity = 0;
    const ssize_t n = ::getline(&buffer, &capacity, report_);
    if (n > 0) line->assign(buffer, static_cast<size_t>(n - 1));
    std::free(buffer);
    return n > 0;
  }

  void ReadBlock(Counters* counters, SpanSummaries* spans, int* lapped) {
    std::string line;
    while (ReadLine(&line) && line != "end") {
      std::istringstream in(line);
      std::string key;
      in >> key;
      if (key == "span") {
        std::string name;
        SpanSummary span;
        in >> name >> span.count >> span.total_ms >> span.self_ms >>
            span.p50_ms >> span.p90_ms;
        if (spans != nullptr) (*spans)[name] = span;
      } else if (key == "lapped") {
        if (lapped != nullptr) in >> *lapped;
      } else {
        in >> (*counters)[key];
      }
    }
  }

  pid_t pid_ = -1;
  int ctl_fd_ = -1;
  FILE* report_ = nullptr;
  uint16_t port_ = 0;
  double cold_ms_ = 0;
};

/// Sums every sample of each metric in a Prometheus-style exposition.
std::map<std::string, double> ParseExposition(const std::string& text) {
  std::map<std::string, double> sums;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    const std::string name = line.substr(0, line.find_first_of("{ "));
    sums[name] += std::strtod(line.c_str() + space + 1, nullptr);
  }
  return sums;
}

/// Closed loop over the mutation connections: each keeps `window`
/// SendMutates in flight. Returns committed mutations per second. Stops
/// early at `max_mutations` so the graph stays below the percolation
/// threshold.
double GatewayClosedLoop(std::vector<std::unique_ptr<net::RpcClient>>& clients,
                         const std::function<GraphMutation(int)>& next_edge,
                         double seconds, int64_t max_mutations, OpCount* ops) {
  constexpr int kWindow = 32;
  std::atomic<int64_t> committed{0};
  std::atomic<int64_t> issued{0};
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients.size(); ++c) {
    threads.emplace_back([&, c] {
      net::RpcClient& client = *clients[c];
      int in_flight = 0;
      auto send = [&] {
        if (Millis(start, Clock::now()) >= seconds * 1000.0 ||
            issued.fetch_add(1) >= max_mutations) {
          return false;
        }
        const bool ok =
            client.SendMutate(kTenant, {next_edge(static_cast<int>(c))}).ok();
        if (!ok) ops->Record(false);
        in_flight += ok ? 1 : 0;
        return ok;
      };
      while (in_flight < kWindow && send()) {
      }
      while (in_flight > 0) {
        auto reply = client.ReceiveReply();
        --in_flight;
        const bool ok = reply.ok() && net::StatusOfReply(*reply).ok();
        ops->Record(ok);
        if (!reply.ok()) break;  // the connection is gone
        committed.fetch_add(1);
        send();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  return 1000.0 * static_cast<double>(committed.load()) /
         Millis(start, Clock::now());
}

}  // namespace

void RunGatewayCc(const Config& config, Report* report) {
  constexpr double kMutationsPerS = 1000;
  constexpr double kQueriesPerS = 2000;
  constexpr int kStreams = 2;
  const int64_t n = config.smoke ? int64_t{1} << 12 : int64_t{1} << 18;

  // Set-up: fork the server, connect, first Ping; kSetups times, the last
  // one serves. The parent is single-threaded here, as fork requires.
  ServerProcess server;
  std::vector<double> setup_s;
  std::vector<double> cold_ms;
  std::unique_ptr<net::RpcClient> first_client;
  for (int i = 0; i < kSetups; ++i) {
    if (i > 0) {
      first_client.reset();
      report->ops.Record(server.Stop());
    }
    const Clock::time_point t0 = Clock::now();
    bool ok = server.Start(config, n);
    if (ok) {
      auto client = net::RpcClient::Connect("127.0.0.1", server.port());
      ok = client.ok() && (*client)->Ping().ok();
      if (ok) first_client = std::move(*client);
    }
    report->ops.Record(ok);
    if (!ok) {
      std::fprintf(stderr, "gateway-cc: server set-up failed\n");
      return;
    }
    setup_s.push_back(Millis(t0, Clock::now()) / 1000.0);
    cold_ms.push_back(server.cold_ms());
  }

  std::vector<std::unique_ptr<net::RpcClient>> writers;
  std::vector<std::unique_ptr<net::RpcClient>> readers;
  readers.push_back(std::move(first_client));
  for (int c = 0; c < 2 * kStreams - 1; ++c) {
    auto client = net::RpcClient::Connect("127.0.0.1", server.port());
    report->ops.Record(client.ok());
    if (!client.ok()) return;
    (c < kStreams ? writers : readers).push_back(std::move(*client));
  }

  // Seeded edge streams, one per writer connection; every inserted edge is
  // kept for the union-find oracle.
  std::vector<Rng> edge_rngs;
  for (int s = 0; s < kStreams; ++s) {
    edge_rngs.emplace_back(config.seed * 104729 + s);
  }
  std::vector<std::vector<std::pair<VertexId, VertexId>>> inserted(kStreams);
  auto next_edge = [&](int s) {
    const VertexId u = static_cast<VertexId>(edge_rngs[s].NextBounded(n));
    VertexId v = static_cast<VertexId>(edge_rngs[s].NextBounded(n));
    if (v == u) v = (u + 1) % n;
    inserted[s].emplace_back(u, v);
    return GraphMutation::EdgeInsert(u, v);
  };
  static const uint16_t kMutateSpan = trace::RegisterName("bench.rpc.mutate");
  static const uint16_t kQuerySpan = trace::RegisterName("bench.rpc.query");
  const std::vector<Load> loads = {
      {kStreams, kMutationsPerS,
       [&](int s, int64_t) {
         trace::Span span(kMutateSpan);
         return writers[s]->Mutate(kTenant, {next_edge(s)}).ok();
       }},
      {kStreams, kQueriesPerS,
       [&](int s, int64_t i) {
         trace::Span span(kQuerySpan);
         const uint64_t h = HashMix64(config.seed * 1000003 + s * 7 +
                                      static_cast<uint64_t>(i) * 131);
         auto reply =
             readers[s]->QueryKey(kTenant, static_cast<int64_t>(h % n));
         return reply.ok() && reply->found;
       }},
  };

  RunOpenLoop(loads, Window::Of(config.warmup_seconds()), &report->ops);
  std::vector<double> pings;
  if (config.trace) {
    for (int i = 0; i < 200; ++i) {
      const Clock::time_point t0 = Clock::now();
      report->ops.Record(readers[0]->Ping().ok());
      pings.push_back(Millis(t0, Clock::now()));
    }
  }
  auto telemetry = [&] {
    auto reply = readers[0]->Telemetry();
    return reply.ok() ? ParseExposition(reply->metrics_text)
                      : std::map<std::string, double>{};
  };
  const double open_s = OpenLoopSeconds(config);
  const Counters before = server.Stats();
  const auto net_before = telemetry();
  const Clock::time_point phase_start = Clock::now();
  const std::vector<LoadSamples> untraced =
      RunOpenLoop(loads, Window::Of(open_s), &report->ops);
  const double phase_ms = Millis(phase_start, Clock::now());
  const Counters after = server.Stats();
  const auto net_after = telemetry();

  std::vector<LoadSamples> traced;
  Counters traced_before;
  Counters traced_after;
  double traced_ms = 0;
  SpanSummaries parent_spans;
  int parent_lapped = 0;
  double saturated = 0;
  if (config.trace) {
    if (before.empty() || after.empty()) {
      report->ops.Record(false);
      return;
    }
    ReportServiceDeltas(before, after, phase_ms, after.at("depth_max"),
                        report);
    report->Set("service.cold_start_ms", Median(cold_ms), "ms");
    report->Set("net.ping_ms_p50", Median(pings), "ms");
    auto net_delta = [&](const char* name) {
      auto b = net_before.find(name);
      auto a = net_after.find(name);
      return a == net_after.end()
                 ? 0.0
                 : a->second - (b == net_before.end() ? 0.0 : b->second);
    };
    report->Set("net.frames_in", net_delta("sfdf_gateway_frames_received"),
                "count");
    report->Set("net.frames_out", net_delta("sfdf_gateway_frames_sent"),
                "count");
    report->Set("net.reads_paused", net_delta("sfdf_gateway_reads_paused"),
                "count");
    report->Set("net.protocol_errors",
                net_delta("sfdf_gateway_protocol_errors"), "count");
    ReportLoadMetrics(untraced[0], untraced[1], open_s, report);

    report->ops.Record(server.ArmTrace());
    TraceWindow window;
    traced_before = server.Stats();
    const Clock::time_point traced_start = Clock::now();
    traced = RunOpenLoop(loads, Window::Of(config.seconds - open_s),
                         &report->ops);
    traced_ms = Millis(traced_start, Clock::now());
    traced_after = server.Stats();
    const TraceCollector collected = window.Finish();
    parent_spans = Summarize(FoldSelfTime(collected));
    parent_lapped = collected.lapped_windows();
    const std::string path = TracePath(config, "");
    if (!path.empty()) WriteChromeTrace(collected, path);
  } else {
    saturated = GatewayClosedLoop(writers, next_edge,
                                  config.seconds - open_s, n / 8, &report->ops);
  }

  // Oracle: the served labels over the wire against union-find of every
  // inserted edge (each vertex labelled with its component's minimum id).
  auto snapshot = readers[0]->SnapshotAll(kTenant);
  UnionFind components(n);
  for (const auto& edges : inserted) {
    for (const auto& [u, v] : edges) components.Union(u, v);
  }
  std::vector<VertexId> min_id(static_cast<size_t>(n), n);
  for (VertexId v = 0; v < n; ++v) {
    VertexId& root_min = min_id[components.Find(v)];
    root_min = std::min(root_min, v);
  }
  bool labels_match =
      snapshot.ok() && static_cast<int64_t>(snapshot->records.size()) == n;
  if (snapshot.ok()) {
    for (const Record& record : snapshot->records) {
      const int64_t v = record.GetInt(0);
      labels_match = labels_match && v >= 0 && v < n &&
                     record.GetInt(1) == min_id[components.Find(v)];
    }
  }
  if (!labels_match) {
    std::fprintf(stderr, "gateway-cc: oracle mismatch: served labels differ "
                         "from union-find\n");
  }
  report->ops.Record(labels_match);

  writers.clear();
  readers.clear();
  Counters final_counters;
  SpanSummaries spans;
  int lapped = 0;
  double peak_rss_mb = 0;
  report->ops.Record(
      server.Stop(&final_counters, &spans, &lapped, &peak_rss_mb));
  if (!config.trace) {
    ReportServingEndToEnd(Median(setup_s), untraced[0], untraced[1], saturated,
                          peak_rss_mb, report);
    return;
  }
  ReportFinalCounters(final_counters, report);
  spans.insert(parent_spans.begin(), parent_spans.end());
  const double committed =
      traced_after.empty() || traced_before.empty()
          ? 0.0
          : traced_after.at("applied") - traced_before.at("applied");
  ReportTraceMetrics(spans, committed, traced_ms, /*workers=*/2, report);
  report->Set("obs.trace_overhead_pct", OverheadPct(untraced[0], traced[0]),
              "%");
  report->Set("obs.trace_lapped_windows", lapped + parent_lapped, "count");
}

}  // namespace suite
}  // namespace sfdf
