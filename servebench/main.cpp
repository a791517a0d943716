// Service benchmark: drives an in-process net::Server through one
// net::Client connection over loopback, closed loop with a fixed number of
// pipelined requests in flight, and checks every response byte for byte
// against a direct library rendering. See README.md for the workloads, the
// thread budget and the metric -> layer map.
//
//   servebench --workload NAME --seed N --seconds S --trace 0|1
//              [--trace-out FILE]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the traced
// variant (untraced and traced windows, pings, in-process replay) and
// prints the per-layer metrics. The last stdout line is the JSON result;
// the exit code is 0 only when every response and drain invariant checked.
#include <sys/resource.h>
#include <time.h>

#include <chrono>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "hdlts/core/hdlts.hpp"
#include "hdlts/net/client.hpp"
#include "hdlts/net/server.hpp"
#include "hdlts/simd/kernels.hpp"
#include "hdlts/util/json.hpp"
#include "pool.hpp"
#include "replay.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace {

namespace net = hdlts::net;
namespace svc = hdlts::svc;
using servebench::Metric;
using servebench::Request;
using servebench::SpanLog;
using servebench::WorkloadKind;
using Clock = std::chrono::steady_clock;

// The fixed load shape of every workload: one client thread on one
// connection, this many requests pipelined, this many engine workers. The
// busy threads (client, event loop, workers) stay within a 4-core host.
constexpr std::size_t kEngineThreads = 2;
constexpr std::size_t kInFlight = 4;
// Set-up is repeated and its median reported, so one slow thread spawn or
// page-fault burst does not decide setup_s.
constexpr int kSetupRepeats = 9;
// Unmeasured closed-loop traffic between set-up and the measured window:
// allocator arenas and caches settle here, not in the first measured second.
constexpr double kRampSeconds = 1.0;
// The measured window is cut into parts, and each end-to-end metric is the
// median over the parts, so a host stall shorter than half the window
// barely moves it. A part is one second, or as many whole seconds as it
// takes to hold this many responses: ten beyond its p90.
constexpr std::size_t kPartResponses = 100;
constexpr int kPings = 200;

struct Args {
  WorkloadKind workload = WorkloadKind::kSmallGenerated;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string trace_out;
};

std::optional<Args> parse_args(int argc, char** argv) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return std::nullopt;
    kv[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 == 0 || !kv.count("workload") || !kv.count("seed") ||
      !kv.count("seconds")) {
    return std::nullopt;
  }
  Args args;
  const auto kind = servebench::workload_from_name(kv["workload"]);
  if (!kind) return std::nullopt;
  args.workload = *kind;
  try {
    args.seed = std::stoull(kv["seed"]);
    args.seconds = std::stod(kv["seconds"]);
    args.trace = kv.count("trace") && std::stoi(kv["trace"]) != 0;
  } catch (const std::exception&) {
    return std::nullopt;
  }
  if (!(args.seconds > 0)) return std::nullopt;
  args.trace_out = kv.count("trace-out") ? kv["trace-out"] : "";
  return args;
}

// ---------------------------------------------------------------------------
// Host readings
// ---------------------------------------------------------------------------

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Host-wide CPU ticks from /proc/stat: steal and the total of the first
/// eight fields (user..steal).
struct CpuTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};

CpuTicks read_cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  CpuTicks ticks;
  in >> cpu;
  for (int i = 0; i < 8 && in; ++i) {
    std::uint64_t v = 0;
    in >> v;
    ticks.total += v;
    if (i == 7) ticks.steal = v;
  }
  return ticks;
}

double steal_share(const CpuTicks& a, const CpuTicks& b) {
  const std::uint64_t total = b.total - a.total;
  return total == 0 ? 0.0
                    : static_cast<double>(b.steal - a.steal) /
                          static_cast<double>(total);
}

/// VmHWM of this process in MB.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// The daemon and its client
// ---------------------------------------------------------------------------

/// Counts requests and keeps the first few correctness failures.
struct Tally {
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::vector<std::string> errors;

  void error(std::string what) {
    if (errors.size() < 5) errors.push_back(std::move(what));
  }
};

struct Cursor {
  std::size_t next_entry = 0;
  std::uint64_t next_id = 1;
};

struct Service {
  std::unique_ptr<hdlts::sched::Registry> registry;
  std::unique_ptr<net::Server> server;
  std::unique_ptr<net::Client> client;
};

/// The id field of a response frame (ok or error).
std::uint64_t response_id(const std::string& response) {
  const auto at = response.find("\"id\":");
  if (at == std::string::npos) {
    throw hdlts::Error("response without an id: " + response.substr(0, 200));
  }
  return std::stoull(response.substr(at + 5));
}

void check_response(const std::vector<Request>& pool, std::size_t entry,
                    std::uint64_t id, const std::string& response,
                    Tally& tally) {
  if (servebench::response_matches(pool[entry], id, response)) {
    ++tally.ok;
  } else {
    tally.error("request " + std::to_string(id) + " (pool entry " +
                std::to_string(entry) + ") got: " + response.substr(0, 200));
  }
}

/// Sends the first kEngineThreads requests of every shape in the pool, one
/// at a time, so each engine worker (dealt round-robin) serves each shape
/// once, and checks the responses. One request in flight keeps the warm-up
/// cost a plain sum of service times.
void warm_up(net::Client& client, const std::vector<Request>& pool,
             Cursor& cursor, Tally& tally) {
  std::map<servebench::Shape, std::size_t> sent;  // per shape
  for (std::size_t i = 0; i < pool.size(); ++i) {
    if (sent[pool[i].shape]++ >= kEngineThreads) continue;
    const std::uint64_t id = cursor.next_id++;
    const std::string response =
        client.request(servebench::request_frame(pool[i], id));
    Tally warm;
    check_response(pool, i, id, response, warm);
    for (std::string& e : warm.errors) tally.error("warm-up: " + e);
  }
}

Service start_service(const std::vector<Request>& pool, Cursor& cursor,
                      Tally& tally) {
  Service s;
  s.registry = std::make_unique<hdlts::sched::Registry>(
      hdlts::core::default_registry());
  net::ServerOptions options;
  options.engine_threads = kEngineThreads;
  s.server = std::make_unique<net::Server>(*s.registry, options);
  s.server->start();
  s.client = std::make_unique<net::Client>(s.server->port());
  warm_up(*s.client, pool, cursor, tally);
  return s;
}

struct DrainStats {
  net::ServerStats server;
  svc::BatchEngineStats engine;
};

/// Closes the connection, drains the daemon and checks the drain
/// invariants.
DrainStats stop_service(Service& s, Tally& tally) {
  s.client.reset();
  s.server->drain();
  DrainStats d{s.server->stats(), s.server->engine_stats()};
  if (d.server.accepted != d.server.completed) {
    tally.error("drain: accepted " + std::to_string(d.server.accepted) +
                " != completed " + std::to_string(d.server.completed));
  }
  if (d.server.rejected != 0) {
    tally.error("drain: rejected " + std::to_string(d.server.rejected));
  }
  if (d.server.orphaned != 0) {
    tally.error("drain: orphaned " + std::to_string(d.server.orphaned));
  }
  if (d.engine.submitted != d.engine.completed + d.engine.cancelled) {
    tally.error("drain: engine submitted " +
                std::to_string(d.engine.submitted) + " != completed " +
                std::to_string(d.engine.completed) + " + cancelled " +
                std::to_string(d.engine.cancelled));
  }
  s.server.reset();
  s.registry.reset();
  return d;
}

/// Where one part of a window starts (the last mark closes the window).
struct Mark {
  std::size_t sample = 0;   ///< index of the part's first latency sample
  std::uint64_t ok = 0;     ///< correct responses before the mark
  double at_s = 0;          ///< since the window opened
  double server_cpu_s = 0;  ///< server CPU used before the mark
};

/// One closed-loop window.
struct Window {
  std::vector<double> latency_ms;  ///< in completion order
  std::vector<Mark> marks;
  std::vector<std::uint64_t> per_second;  ///< completions per window second
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  double wall_s = 0;
  double steal = 0;  ///< host steal share over the window
};

/// Per-part values of the end-to-end metrics (parts without responses are
/// skipped).
struct Parts {
  std::vector<double> req_per_s, p50_ms, p90_ms, cpu_ms_per_req;
  std::size_t min_samples = 0;
};

Parts split(const Window& w) {
  // Greedily merge consecutive seconds until a part holds kPartResponses;
  // a short remainder joins the last part.
  std::vector<std::size_t> bounds{0};
  for (std::size_t k = 1; k + 1 < w.marks.size(); ++k) {
    if (w.marks[k].sample - w.marks[bounds.back()].sample >= kPartResponses &&
        w.marks.back().sample - w.marks[k].sample >= kPartResponses) {
      bounds.push_back(k);
    }
  }
  bounds.push_back(w.marks.size() - 1);
  Parts parts;
  for (std::size_t k = 0; k + 1 < bounds.size(); ++k) {
    const Mark& a = w.marks[bounds[k]];
    const Mark& b = w.marks[bounds[k + 1]];
    if (b.sample == a.sample) continue;
    const std::vector<double> latency(w.latency_ms.begin() + a.sample,
                                      w.latency_ms.begin() + b.sample);
    const auto ok =
        static_cast<double>(std::max<std::uint64_t>(b.ok - a.ok, 1));
    parts.req_per_s.push_back(static_cast<double>(b.ok - a.ok) /
                              (b.at_s - a.at_s));
    parts.p50_ms.push_back(servebench::median(latency));
    parts.p90_ms.push_back(servebench::quantile(latency, 0.9));
    parts.cpu_ms_per_req.push_back((b.server_cpu_s - a.server_cpu_s) * 1e3 /
                                   ok);
    parts.min_samples = parts.p50_ms.size() == 1
                            ? latency.size()
                            : std::min(parts.min_samples, latency.size());
  }
  return parts;
}

/// Keeps kInFlight requests outstanding: each response frees its slot and,
/// until `seconds` have passed, the slot sends the next pooled request.
/// A mark opens each second of the window. With `log`, each request
/// becomes a "client.request" span on its slot's lane.
Window closed_loop(net::Client& client, const std::vector<Request>& pool,
                   Cursor& cursor, double seconds, Tally& tally,
                   SpanLog* log) {
  struct Slot {
    std::uint64_t id = 0;
    std::size_t entry = 0;
    Clock::time_point sent;
    bool active = false;
  };
  std::vector<Slot> slots(kInFlight);
  Window w;
  // Reserved, not touched: only the pages samples land on count towards
  // peak_rss_mb, and the vector never doubles mid-window.
  w.latency_ms.reserve(static_cast<std::size_t>(seconds * 50000) + 1024);
  const auto send = [&](Slot& slot) {
    slot.entry = cursor.next_entry++ % pool.size();
    slot.id = cursor.next_id++;
    const std::string frame =
        servebench::request_frame(pool[slot.entry], slot.id);
    slot.sent = Clock::now();
    slot.active = true;
    client.send_line(frame);
    ++w.sent;
  };

  const CpuTicks ticks0 = read_cpu_ticks();
  const double cpu0 = process_cpu_s();
  const double client0 = thread_cpu_s();
  const auto t0 = Clock::now();
  const auto deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
  const double last_second = std::max(0.0, std::ceil(seconds) - 1);
  Tally window;
  const auto mark = [&](Clock::time_point at) {
    w.marks.push_back({w.latency_ms.size(), window.ok,
                       std::chrono::duration<double>(at - t0).count(),
                       (process_cpu_s() - cpu0) - (thread_cpu_s() - client0)});
  };
  mark(t0);
  for (Slot& slot : slots) send(slot);
  std::size_t active = slots.size();
  while (active > 0) {
    const std::string response = client.recv_line();
    const auto now = Clock::now();
    // A response past the deadline (the drain tail) stays in the last
    // second.
    const double mark_second = std::min(
        last_second,
        std::floor(std::chrono::duration<double>(now - t0).count()));
    if (mark_second >= static_cast<double>(w.marks.size())) mark(now);
    const std::uint64_t id = response_id(response);
    const auto it =
        std::find_if(slots.begin(), slots.end(),
                     [&](const Slot& s) { return s.active && s.id == id; });
    if (it == slots.end()) {
      throw hdlts::Error("response for unknown request " + std::to_string(id));
    }
    w.latency_ms.push_back(
        std::chrono::duration<double, std::milli>(now - it->sent).count());
    const auto second = static_cast<std::size_t>(
        std::chrono::duration<double>(now - t0).count());
    if (second >= w.per_second.size()) w.per_second.resize(second + 1, 0);
    ++w.per_second[second];
    check_response(pool, it->entry, id, response, window);
    if (log != nullptr) {
      log->add("client.request", it->sent, now, id,
               static_cast<std::uint32_t>(it - slots.begin()) + 1);
    }
    if (now < deadline) {
      send(*it);
    } else {
      it->active = false;
      --active;
    }
  }
  const auto t1 = Clock::now();
  mark(t1);
  w.steal = steal_share(ticks0, read_cpu_ticks());
  w.wall_s = std::chrono::duration<double>(t1 - t0).count();
  w.ok = window.ok;
  tally.sent += w.sent;
  tally.ok += window.ok;
  for (std::string& e : window.errors) tally.error(std::move(e));
  return w;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\":";
  out += correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(attempted);
  out += ",\"failed\":" + std::to_string(failed);
  out += ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ',';
    out += "\"" + metrics[i].name + "\":{\"value\":" +
           hdlts::util::json_number(metrics[i].value) + ",\"unit\":\"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  std::cout << out << std::endl;
}

void print_fingerprint(const Args& args, std::size_t pool_size) {
  std::cout << "servebench: workload="
            << servebench::workload_name(args.workload)
            << " seed=" << args.seed << " seconds=" << args.seconds
            << " trace=" << (args.trace ? 1 : 0) << " pool=" << pool_size
            << "\nservebench: host cpu=\"" << cpu_model()
            << "\" nproc=" << std::thread::hardware_concurrency()
            << " compiler=\"" << SERVEBENCH_COMPILER
            << "\" build=" << SERVEBENCH_BUILD_TYPE
            << " simd=" << hdlts::simd::active_backend()
            << "\nservebench: load engine_threads=" << kEngineThreads
            << " in_flight=" << kInFlight
            << " connections=1 client_threads=1 loop=closed\n";
}

void print_window(const char* label, const Window& w) {
  // p90 has n/10 samples beyond it; at least ten are wanted.
  std::cout << "servebench: " << label << " window: " << w.sent
            << " requests in " << std::setprecision(4) << w.wall_s
            << " s, latency samples=" << w.latency_ms.size() << " (p50 "
            << servebench::median(w.latency_ms) << " ms, p90 "
            << servebench::quantile(w.latency_ms, 0.9) << " ms, "
            << w.latency_ms.size() / 10
            << " beyond p90), host steal share=" << w.steal << "\n";
  // Completions per second of the window (the last one partial): host
  // drift or a stall shows as an uneven row even when the totals look
  // normal.
  std::cout << "servebench: " << label << " completions per second:";
  for (const std::uint64_t n : w.per_second) std::cout << ' ' << n;
  std::cout << "\n";
}

int report_errors(const Tally& tally) {
  for (const std::string& e : tally.errors) {
    std::cerr << "servebench: FAIL " << e << "\n";
  }
  return tally.errors.empty() ? 0 : 1;
}

// ---------------------------------------------------------------------------
// The two modes
// ---------------------------------------------------------------------------

int run_untraced(const Args& args, const std::vector<Request>& pool) {
  Tally tally;
  Cursor cursor;
  std::vector<double> setups;
  const auto timed_setup = [&] {
    const auto t0 = Clock::now();
    Service service = start_service(pool, cursor, tally);
    setups.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
    return service;
  };

  Service service = timed_setup();
  closed_loop(*service.client, pool, cursor, kRampSeconds, tally, nullptr);
  const Window w =
      closed_loop(*service.client, pool, cursor, args.seconds, tally, nullptr);
  stop_service(service, tally);
  // Read before the repeat set-ups below, whose thread churn would leave
  // allocator arenas behind and blur the serving footprint.
  const double rss_mb = peak_rss_mb();
  for (int k = 1; k < kSetupRepeats; ++k) {
    Service repeat = timed_setup();
    stop_service(repeat, tally);
  }
  print_window("measured", w);
  const Parts parts = split(w);
  std::cout << "servebench: " << parts.p50_ms.size()
            << " parts, each metric is the median over them; fewest samples "
               "in a part="
            << parts.min_samples << " (" << parts.min_samples / 10
            << " beyond p90)\nservebench: setup_s runs:";
  for (const double s : setups) std::cout << ' ' << s;
  std::cout << "\n";

  const int rc = report_errors(tally);
  const double ok_ratio =
      static_cast<double>(w.ok) /
      static_cast<double>(std::max<std::uint64_t>(w.sent, 1));
  print_result(rc == 0 && w.ok == w.sent, w.sent, w.sent - w.ok,
               {{"req_per_s", servebench::median(parts.req_per_s), "1/s"},
                {"latency_p50_ms", servebench::median(parts.p50_ms), "ms"},
                {"latency_p90_ms", servebench::median(parts.p90_ms), "ms"},
                {"cpu_ms_per_req", servebench::median(parts.cpu_ms_per_req),
                 "ms"},
                {"ok_ratio", ok_ratio, "ratio"},
                {"setup_s", servebench::median(setups), "s"},
                {"peak_rss_mb", rss_mb, "MB"}});
  return rc;
}

int run_traced(const Args& args, const std::vector<Request>& pool) {
  Tally tally;
  Cursor cursor;
  SpanLog log;
  Service service = start_service(pool, cursor, tally);
  closed_loop(*service.client, pool, cursor, kRampSeconds, tally, nullptr);

  // Untraced and traced windows alternate, so drift over the run lands on
  // both; the difference of their medians is the tracing overhead.
  Window plain;
  Window traced;
  for (int k = 0; k < 4; ++k) {
    const bool with_spans = k % 2 == 1;
    Window w = closed_loop(*service.client, pool, cursor, 0.175 * args.seconds,
                           tally, with_spans ? &log : nullptr);
    Window& into = with_spans ? traced : plain;
    into.latency_ms.insert(into.latency_ms.end(), w.latency_ms.begin(),
                           w.latency_ms.end());
    into.per_second.insert(into.per_second.end(), w.per_second.begin(),
                           w.per_second.end());
    into.sent += w.sent;
    into.ok += w.ok;
    into.wall_s += w.wall_s;
    into.steal = std::max(into.steal, w.steal);
  }
  std::vector<double> pings;
  for (int i = 0; i < kPings; ++i) {
    const auto t0 = Clock::now();
    const std::string pong = service.client->request("{\"op\":\"ping\"}");
    const auto t1 = Clock::now();
    if (pong != "{\"ok\":true,\"op\":\"ping\"}") {
      tally.error("ping got: " + pong);
    }
    log.add("client.ping", t0, t1, 0, 0);
    pings.push_back(std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  const DrainStats drained = stop_service(service, tally);
  print_window("untraced", plain);
  print_window("traced", traced);

  const auto registry = hdlts::core::default_registry();
  servebench::ReplayOptions options;
  options.engine_threads = kEngineThreads;
  options.in_flight = kInFlight;
  options.budget_s = 0.2 * args.seconds;
  options.first_request_id = cursor.next_id;
  const servebench::ReplayOutput replay =
      servebench::replay(pool, registry, options, log);
  if (replay.mismatches != 0) {
    tally.error("replay: " + std::to_string(replay.mismatches) +
                " responses differ from the expected rendering");
  }

  const double latency_p50 = servebench::median(plain.latency_ms);
  const double overhead = latency_p50 - replay.service_p50_ms;
  std::cout << "servebench: stage self times over " << replay.requests
            << " replayed requests (path rows apportion the median service "
               "time by their share of it)\n";
  std::cout << "  " << std::left << std::setw(30) << "stage" << std::setw(7)
            << "kind" << std::right << std::setw(12) << "median_ms"
            << std::setw(10) << "requests" << std::setw(12) << "ms_of_p50"
            << "\n";
  double accounted = 0;
  for (const servebench::StageRow& row : replay.stages) {
    const double of_p50 = row.share * replay.service_p50_ms;
    if (row.on_path) accounted += of_p50;
    std::cout << "  " << std::left << std::setw(30) << row.name << std::setw(7)
              << (row.on_path ? "path" : "probe") << std::right << std::fixed
              << std::setprecision(4) << std::setw(12) << row.median_ms
              << std::setw(10) << row.requests;
    if (row.on_path) std::cout << std::setw(12) << of_p50;
    std::cout << "\n";
  }
  std::cout << "  " << std::left << std::setw(49) << "serve.overhead_ms"
            << std::right << std::setw(12) << overhead << "\n"
            << "  " << std::left << std::setw(49)
            << "stages + overhead (latency_p50_ms)" << std::right
            << std::setw(12) << accounted + overhead << " (" << latency_p50
            << ")\n"
            << std::defaultfloat;

  if (!args.trace_out.empty()) {
    std::ofstream out(args.trace_out);
    log.write_chrome_trace(out);
    std::cout << "servebench: wrote " << log.spans().size() << " spans to "
              << args.trace_out << "\n";
  }

  std::vector<Metric> metrics = replay.metrics;
  const auto add = [&](const std::string& name, double value,
                       const std::string& unit) {
    metrics.push_back({name, value, unit});
  };
  add("net.ping_rtt_ms", servebench::median(pings), "ms");
  add("net.accepted", static_cast<double>(drained.server.accepted), "count");
  add("net.rejected", static_cast<double>(drained.server.rejected), "count");
  add("net.completed", static_cast<double>(drained.server.completed), "count");
  add("net.orphaned", static_cast<double>(drained.server.orphaned), "count");
  add("serve.overhead_ms", overhead, "ms");
  add("svc.steals", static_cast<double>(drained.engine.steals), "count");
  add("svc.queue_high_water",
      static_cast<double>(drained.engine.queue_high_water), "count");
  add("svc.completed", static_cast<double>(drained.engine.completed), "count");
  add("trace.overhead_ms",
      servebench::median(traced.latency_ms) - latency_p50, "ms");

  const int rc = report_errors(tally);
  print_result(rc == 0, tally.sent, tally.sent - tally.ok, metrics);
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = parse_args(argc, argv);
  if (!args) {
    std::cerr << "usage: servebench --workload "
                 "small_generated|large_mixed|inline_large --seed N "
                 "--seconds S [--trace 0|1] [--trace-out FILE]\n";
    return 2;
  }
  try {
    const auto registry = hdlts::core::default_registry();
    const std::vector<Request> pool =
        servebench::make_pool(args->workload, args->seed, registry);
    print_fingerprint(*args, pool.size());
    return args->trace ? run_traced(*args, pool) : run_untraced(*args, pool);
  } catch (const std::exception& e) {
    std::cerr << "servebench: error: " << e.what() << "\n";
    return 1;
  }
}
