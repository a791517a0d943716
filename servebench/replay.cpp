#include "replay.hpp"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <type_traits>

#include "hdlts/core/online.hpp"
#include "hdlts/core/stream.hpp"
#include "hdlts/io/workload_io.hpp"
#include "hdlts/sim/problem.hpp"
#include "hdlts/sim/schedule.hpp"
#include "hdlts/simd/kernels.hpp"
#include "hdlts/svc/batch_engine.hpp"
#include "hdlts/util/json_parse.hpp"
#include "hdlts/util/rng.hpp"
#include "stats.hpp"

namespace servebench {

namespace net = hdlts::net;
namespace core = hdlts::core;
namespace sim = hdlts::sim;
namespace svc = hdlts::svc;
using Clock = std::chrono::steady_clock;

namespace {

constexpr const char* kRoot = "serve.request";
const std::vector<std::string> kStaticSchedulers = {"hdlts", "heft", "cpop"};

/// Span name -> per-layer metric name (median ms per request that calls it).
struct LayerMetric {
  const char* span;
  const char* metric;
};
constexpr LayerMetric kLayerMetrics[] = {
    {"net.parse_request", "net.parse_request_ms"},
    {"util.parse_json", "net.parse_json_ms"},
    {"io.read_workload", "net.read_workload_ms"},
    {"net.render", "net.render_ms"},
    {"workload.generate", "workload.generate_ms"},
    {"sim.workload_copy", "sim.workload_copy_ms"},
    {"sim.problem", "sim.problem_ms"},
    {"sched.schedule.hdlts", "sched.schedule_ms.hdlts"},
    {"sched.schedule.heft", "sched.schedule_ms.heft"},
    {"sched.schedule.cpop", "sched.schedule_ms.cpop"},
    {"core.online", "core.online_ms"},
    {"core.stream_compile", "core.stream_compile_ms"},
    {"core.stream_run", "core.stream_run_ms"},
};

/// One replayed request: time per layer (path and probe calls alike).
struct Sample {
  std::size_t entry = 0;
  std::size_t tasks = 0;   ///< tasks in the scheduled problem
  double service_ms = 0;   ///< the request span
  double engine_ms = 0;    ///< service minus parse and render: engine work
  double request_bytes = 0;
  double response_bytes = 0;
  std::map<std::string, double> ms;
};

/// What a request's probes work on, built once per pooled request.
struct ProbeInput {
  std::string frame;
  std::optional<sim::Workload> workload;  ///< unset for stream requests
  std::string text;                       ///< workload text (io layer)
};

/// Mirrors one engine worker: recycled schedulers, schedule and dynamic
/// runtimes, so steady-state calls cost what they cost on the daemon.
class Replayer {
 public:
  Replayer(const hdlts::sched::Registry& registry, const net::Limits& limits)
      : registry_(registry), limits_(limits) {}

  /// The daemon's path for one request, under a root span. False when the
  /// rendered response differs from the pool's expectation.
  bool run_path(const Request& r, std::size_t entry, std::uint64_t id,
                SpanLog& log, Sample& s);

  /// The untimed inputs the probes of `r` work on.
  ProbeInput probe_input(const Request& r) const;

  /// Times one call into `layer` on the request's own inputs, outside any
  /// request span. Stream requests carry several workloads and are probed
  /// for parsing only.
  void probe(const std::string& layer, const Request& r, const ProbeInput& in,
             std::uint64_t id, SpanLog& log, Sample& s);

 private:
  template <class F>
  auto timed(SpanLog& log, const std::string& name, std::uint64_t id,
             std::size_t parent, Sample& s, F&& fn) {
    const std::size_t span = log.begin(name, id, parent);
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      log.end(span);
      s.ms[name] += log.spans()[span].ms();
    } else {
      auto result = fn();
      log.end(span);
      s.ms[name] += log.spans()[span].ms();
      return result;
    }
  }

  hdlts::sched::Scheduler& scheduler(const std::string& name) {
    auto it = cache_.find(name);
    if (it == cache_.end()) {
      it = cache_.emplace(name, registry_.make(name)).first;
    }
    return *it->second;
  }

  const hdlts::sched::Registry& registry_;
  net::Limits limits_;
  std::map<std::string, hdlts::sched::SchedulerPtr> cache_;
  sim::Schedule schedule_{0, 1};
  core::OnlineHdlts online_;
  core::OnlineResult online_result_;
  core::StreamHdlts stream_;
  core::StreamResult stream_result_;
};

bool Replayer::run_path(const Request& r, std::size_t entry, std::uint64_t id,
                        SpanLog& log, Sample& s) {
  const std::string frame = request_frame(r, id);
  s.entry = entry;
  s.tasks = r.tasks;
  s.request_bytes = static_cast<double>(frame.size() + 1);
  std::optional<sim::Workload> workload;

  const std::size_t root = log.begin(kRoot, id);
  net::ParsedRequest pr = timed(log, "net.parse_request", id, root, s, [&] {
    return net::parse_request(frame, limits_);
  });
  std::string response;
  if (pr.job == svc::BatchJob::kStream) {
    timed(log, "core.stream_compile", id, root, s,
          [&] { stream_.compile(pr.arrivals); });
    timed(log, "core.stream_run", id, root, s,
          [&] { stream_.run_into(stream_result_); });
    response = timed(log, "net.render", id, root, s, [&] {
      return net::render_stream_response(pr.id, pr.tenant, pr.seed,
                                         stream_result_);
    });
  } else {
    if (pr.generator.has_value()) {
      workload.emplace(timed(log, "workload.generate", id, root, s, [&] {
        return net::make_workload(*pr.generator, pr.seed);
      }));
    } else {
      workload.emplace(timed(log, "sim.workload_copy", id, root, s,
                              [&] { return sim::Workload(*pr.workload); }));
    }
    const sim::Problem problem = timed(log, "sim.problem", id, root, s,
                                       [&] { return sim::Problem(*workload); });
    s.tasks = problem.num_tasks();
    if (pr.job == svc::BatchJob::kOnline) {
      timed(log, "core.online", id, root, s, [&] {
        online_.run_into(problem, pr.failures, online_result_);
      });
      response = timed(log, "net.render", id, root, s, [&] {
        return net::render_online_response(pr.id, pr.tenant, pr.seed,
                                           online_result_);
      });
    } else {
      std::vector<double> makespans;
      for (const std::string& name : pr.schedulers) {
        timed(log, "sched.schedule." + name, id, root, s, [&] {
          scheduler(name).schedule_into(problem, schedule_);
        });
        makespans.push_back(schedule_.makespan());
      }
      response = timed(log, "net.render", id, root, s, [&] {
        std::vector<std::string> entries;
        for (std::size_t i = 0; i < makespans.size(); ++i) {
          entries.push_back(net::render_static_entry(pr.schedulers[i], true,
                                                     makespans[i], ""));
        }
        return net::render_static_response(pr.id, pr.tenant, pr.seed,
                                           entries);
      });
    }
  }
  log.end(root);
  s.service_ms = log.spans()[root].ms();
  s.engine_ms = s.service_ms - s.ms["net.parse_request"] - s.ms["net.render"];
  s.response_bytes = static_cast<double>(response.size());
  return !response.empty() && response.back() == '\n' &&
         response_matches(r, id,
                          std::string_view(response).substr(
                              0, response.size() - 1));
}

ProbeInput Replayer::probe_input(const Request& r) const {
  ProbeInput in;
  in.frame = request_frame(r, 0);
  const net::ParsedRequest pr = net::parse_request(in.frame, limits_);
  if (pr.job == svc::BatchJob::kStream) return in;
  in.workload.emplace(pr.workload.has_value()
                          ? *pr.workload
                          : net::make_workload(*pr.generator, pr.seed));
  in.text = r.workload_text;
  if (in.text.empty()) {
    std::ostringstream os;
    hdlts::io::write_workload(os, *in.workload);
    in.text = os.str();
  }
  return in;
}

void Replayer::probe(const std::string& layer, const Request& r,
                     const ProbeInput& in, std::uint64_t id, SpanLog& log,
                     Sample& s) {
  if (layer == "util.parse_json") {
    timed(log, layer, id, kNoParent, s,
          [&] { return hdlts::util::parse_json(in.frame); });
    return;
  }
  // The other layers need the request's single workload.
  if (!in.workload.has_value()) return;
  const sim::Workload& workload = *in.workload;
  s.tasks = workload.graph.num_tasks();
  if (layer == "io.read_workload") {
    timed(log, layer, id, kNoParent, s, [&] {
      std::istringstream is(in.text);
      return hdlts::io::read_workload(is);
    });
  } else if (layer == "workload.generate") {
    const Source& source = r.sources.front();
    timed(log, layer, id, kNoParent, s,
          [&] { return net::make_workload(source.spec, source.seed); });
  } else if (layer == "sim.workload_copy") {
    timed(log, layer, id, kNoParent, s,
          [&] { return sim::Workload(workload); });
  } else if (layer == "sim.problem") {
    timed(log, layer, id, kNoParent, s,
          [&] { return sim::Problem(workload); });
  } else if (layer.rfind("sched.schedule.", 0) == 0) {
    const sim::Problem problem(workload);
    const std::string name =
        layer.substr(std::string("sched.schedule.").size());
    timed(log, layer, id, kNoParent, s,
          [&] { scheduler(name).schedule_into(problem, schedule_); });
  } else if (layer == "core.online") {
    // Processor 0 fails half-way through the clean HDLTS schedule.
    const sim::Problem problem(workload);
    scheduler("hdlts").schedule_into(problem, schedule_);
    const std::vector<core::ProcFailure> failures{
        {0, 0.5 * schedule_.makespan()}};
    timed(log, layer, id, kNoParent, s, [&] {
      online_.run_into(problem, failures, online_result_);
    });
  } else if (layer == "core.stream_compile" || layer == "core.stream_run") {
    // A stream of one: the request's workflow arriving at time zero.
    const std::vector<core::StreamArrival> arrivals{{workload, 0.0}};
    if (layer == "core.stream_compile") {
      timed(log, layer, id, kNoParent, s, [&] { stream_.compile(arrivals); });
    } else {
      stream_.compile(arrivals);
      timed(log, layer, id, kNoParent, s,
            [&] { stream_.run_into(stream_result_); });
    }
  }
}

/// An engine request plus the storage its non-owning pointers refer to.
struct EngineJob {
  svc::WorkloadFn workload_fn;
  std::vector<core::StreamArrival> arrivals;
  svc::BatchRequest request;
  std::size_t results = 1;  ///< callbacks per request
};

EngineJob make_engine_job(const Request& r, const net::Limits& limits) {
  net::ParsedRequest pr = net::parse_request(request_frame(r, 0), limits);
  EngineJob job;
  job.request.seed = pr.seed;
  job.request.job = pr.job;
  if (pr.job == svc::BatchJob::kStream) {
    job.arrivals = std::move(pr.arrivals);
    job.request.stream_options = pr.stream_options;
    return job;
  }
  if (pr.generator.has_value()) {
    job.workload_fn = [spec = *pr.generator](std::uint64_t seed) {
      return net::make_workload(spec, seed);
    };
  } else {
    job.workload_fn = [workload = std::move(*pr.workload)](std::uint64_t) {
      return workload;
    };
  }
  job.request.schedulers = pr.schedulers;
  job.request.failures = pr.failures;
  if (pr.job == svc::BatchJob::kStatic) job.results = pr.schedulers.size();
  return job;
}

struct EngineReplay {
  double wait_ms = 0;      ///< median submit->final callback minus service
  double busy_share = 0;   ///< service time / (wall * workers)
  std::size_t failures = 0;
};

/// Drives `requests` pooled requests through a fresh engine, closed loop
/// with `in_flight` outstanding. `service_ms[entry]` is the replayed engine
/// share of a request's service time.
EngineReplay replay_engine(const std::vector<Request>& pool,
                           const std::vector<double>& service_ms,
                           const hdlts::sched::Registry& registry,
                           const ReplayOptions& options,
                           std::size_t requests) {
  std::vector<EngineJob> jobs;
  for (const Request& r : pool) {
    jobs.push_back(make_engine_job(r, options.limits));
  }
  for (EngineJob& job : jobs) {
    if (job.request.job == svc::BatchJob::kStream) {
      job.request.arrivals = &job.arrivals;
    } else {
      job.request.generator = &job.workload_fn;
    }
  }

  struct Flight {
    std::size_t entry = 0;
    std::size_t remaining = 0;
    Clock::time_point submitted;
    Clock::time_point done;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::vector<Flight> flights;  // indexed by request id; guarded by mu
  std::deque<std::size_t> finished;
  std::size_t failures = 0;

  svc::BatchEngineOptions engine_options;
  engine_options.threads = options.engine_threads;
  svc::BatchEngine engine(
      registry,
      [&](const svc::BatchResult& result) {
        const auto now = Clock::now();
        std::lock_guard<std::mutex> lock(mu);
        if (!result.ok) ++failures;
        Flight& flight = flights[result.id];
        if (--flight.remaining == 0) {
          flight.done = now;
          finished.push_back(result.id);
          cv.notify_one();
        }
      },
      engine_options);

  std::size_t submitted = 0;
  const auto submit_next = [&] {
    const std::size_t entry = submitted % pool.size();
    svc::BatchRequest request = jobs[entry].request;
    request.id = submitted;
    {
      std::lock_guard<std::mutex> lock(mu);
      flights.push_back({entry, jobs[entry].results, Clock::now(), {}});
    }
    ++submitted;
    engine.submit(request);
  };
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < std::min(options.in_flight, requests); ++i) {
    submit_next();
  }
  std::vector<double> waits;
  double busy_ms = 0;
  Clock::time_point last_done = start;
  for (std::size_t completed = 0; completed < requests; ++completed) {
    Flight flight;
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return !finished.empty(); });
      flight = flights[finished.front()];
      finished.pop_front();
    }
    const double total = std::chrono::duration<double, std::milli>(
                             flight.done - flight.submitted)
                             .count();
    waits.push_back(total - service_ms[flight.entry]);
    last_done = std::max(last_done, flight.done);
    busy_ms += service_ms[flight.entry];
    if (submitted < requests) submit_next();
  }
  engine.shutdown(svc::BatchEngine::Drain::kDrain);

  const double wall_ms =
      std::chrono::duration<double, std::milli>(last_done - start).count();
  EngineReplay out;
  out.wait_ms = median(waits);
  out.busy_share = busy_ms / (std::max(wall_ms, 1e-9) *
                              static_cast<double>(options.engine_threads));
  out.failures = failures;
  return out;
}

/// Median ns per simd::active().argmin call over a row as wide as the
/// workload's platform (the min-EFT selection each scheduling decision
/// makes).
double argmin_ns(std::size_t width) {
  hdlts::util::Rng rng(7);
  std::vector<double> row(width);
  for (double& v : row) v = rng.uniform(0.0, 100.0);
  const auto& kernels = hdlts::simd::active();
  constexpr std::size_t kCalls = 1 << 18;
  std::vector<double> runs;
  std::size_t sink = 0;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0, j = 0; i < kCalls; ++i) {
      row[j] += 1e-6;  // keeps each call's input fresh
      j = j + 1 == width ? 0 : j + 1;
      sink += kernels.argmin(row.data(), width);
    }
    const auto t1 = Clock::now();
    runs.push_back(std::chrono::duration<double, std::nano>(t1 - t0).count() /
                   static_cast<double>(kCalls));
  }
  if (sink == static_cast<std::size_t>(-1)) runs.push_back(0.0);  // keep sink
  return median(runs);
}

}  // namespace

ReplayOutput replay(const std::vector<Request>& pool,
                    const hdlts::sched::Registry& registry,
                    const ReplayOptions& options, SpanLog& log) {
  Replayer replayer(registry, options.limits);
  ReplayOutput out;

  // Warm pass (unrecorded): fills scheduler arenas and recycled buffers as
  // the daemon's warm-up does, and finds which layers the workload's
  // requests call. Every other layer is probed, as are the two halves of
  // net.parse_request.
  std::set<std::string> probe;
  for (const LayerMetric& layer : kLayerMetrics) probe.insert(layer.span);
  std::vector<ProbeInput> inputs;
  for (const Request& r : pool) inputs.push_back(replayer.probe_input(r));
  {
    SpanLog scratch;
    for (std::size_t i = 0; i < pool.size(); ++i) {
      Sample warm;
      replayer.run_path(pool[i], i, 0, scratch, warm);
      for (const auto& [name, ms] : warm.ms) probe.erase(name);
    }
    probe.insert("util.parse_json");
    probe.insert("io.read_workload");
    for (const std::string& layer : probe) {
      for (std::size_t i = 0; i < pool.size(); ++i) {
        Sample warm;
        replayer.probe(layer, pool[i], inputs[i], 0, scratch, warm);
      }
    }
  }

  std::vector<Sample> samples;  // one per replayed request (path and probes)
  std::uint64_t id = options.first_request_id;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(options.budget_s));
  for (std::size_t pass = 0; pass < 2 || Clock::now() < deadline; ++pass) {
    const std::size_t first = samples.size();
    for (std::size_t i = 0; i < pool.size(); ++i) {
      Sample s;
      if (!replayer.run_path(pool[i], i, id + i, log, s)) ++out.mismatches;
      samples.push_back(std::move(s));
    }
    // Probes run after the path pass, one layer at a time, so neither
    // disturbs the other's caches.
    for (const std::string& layer : probe) {
      for (std::size_t i = 0; i < pool.size(); ++i) {
        replayer.probe(layer, pool[i], inputs[i], id + i, log,
                       samples[first + i]);
      }
    }
    id += pool.size();
  }
  out.requests = samples.size();

  // Per-layer medians over the requests that call (or probe) each layer.
  const auto collect = [&](const std::string& span, double scale,
                           bool per_task) {
    std::vector<double> values;
    for (const Sample& s : samples) {
      const auto it = s.ms.find(span);
      if (it == s.ms.end()) continue;
      values.push_back(it->second * scale /
                       (per_task ? static_cast<double>(s.tasks) : 1.0));
    }
    return values;
  };
  double service_total = 0;
  std::vector<double> service;
  for (const Sample& s : samples) {
    service.push_back(s.service_ms);
    service_total += s.service_ms;
  }
  out.service_p50_ms = median(service);
  double stage_total = 0;
  for (const LayerMetric& layer : kLayerMetrics) {
    const std::vector<double> values = collect(layer.span, 1.0, false);
    if (values.empty()) continue;
    out.metrics.push_back({layer.metric, median(values), "ms"});
    StageRow row;
    row.name = layer.span;
    row.on_path = probe.count(layer.span) == 0;
    row.median_ms = median(values);
    row.requests = values.size();
    if (row.on_path) {
      double total = 0;
      for (const double v : values) total += v;
      row.share = total / service_total;
      stage_total += total;
    }
    out.stages.push_back(row);
  }
  StageRow glue;  // the request span's own self time: replay bookkeeping
  glue.name = std::string(kRoot) + " (self)";
  glue.on_path = true;
  glue.requests = samples.size();
  glue.share = (service_total - stage_total) / service_total;
  glue.median_ms = glue.share * out.service_p50_ms;
  out.stages.push_back(glue);

  for (const std::string& name : kStaticSchedulers) {
    const std::vector<double> ns = collect("sched.schedule." + name, 1e6, true);
    if (!ns.empty()) {
      out.metrics.push_back(
          {"sched.ns_per_decision." + name, median(ns), "ns"});
    }
  }
  std::vector<double> request_bytes, response_bytes;
  for (const Sample& s : samples) {
    request_bytes.push_back(s.request_bytes);
    response_bytes.push_back(s.response_bytes);
  }
  out.metrics.push_back({"net.request_bytes", median(request_bytes), "bytes"});
  out.metrics.push_back(
      {"net.response_bytes", median(response_bytes), "bytes"});
  out.metrics.push_back({"serve.service_ms", out.service_p50_ms, "ms"});

  // Engine share of each pooled request's service time, median over passes.
  std::vector<std::vector<double>> per_entry(pool.size());
  for (const Sample& s : samples) per_entry[s.entry].push_back(s.engine_ms);
  std::vector<double> engine_service;
  for (const auto& values : per_entry) engine_service.push_back(median(values));
  const EngineReplay engine = replay_engine(
      pool, engine_service, registry, options,
      std::max<std::size_t>(4 * pool.size(), 64));
  out.metrics.push_back({"svc.wait_ms", engine.wait_ms, "ms"});
  out.metrics.push_back({"svc.busy_share", engine.busy_share, "ratio"});
  out.mismatches += engine.failures;

  out.metrics.push_back(
      {"simd.argmin_ns", argmin_ns(pool.front().sources.front().spec.cpus),
       "ns"});
  return out;
}

}  // namespace servebench
