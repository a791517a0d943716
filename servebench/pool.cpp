#include "pool.hpp"

#include <charconv>
#include <sstream>

#include "hdlts/core/online.hpp"
#include "hdlts/core/stream.hpp"
#include "hdlts/io/workload_io.hpp"
#include "hdlts/sim/problem.hpp"
#include "hdlts/util/json.hpp"
#include "hdlts/util/rng.hpp"

namespace servebench {

namespace net = hdlts::net;
namespace core = hdlts::core;
namespace sim = hdlts::sim;
namespace util = hdlts::util;

namespace {

constexpr std::string_view kOkPrefix = "{\"ok\":true,\"id\":";
// render_* without an id starts with this; the id is spliced in after it.
constexpr std::string_view kNoIdPrefix = "{\"ok\":true,";
constexpr std::string_view kTenant = "default";

// Pool sizes: enough distinct DAGs that no one input dominates, few enough
// that set-up (generation plus the expected-result runs) stays well under a
// second.
constexpr std::size_t kSmallPool = 64;
constexpr std::size_t kLargePool = 24;  // 8 of each of the three job kinds
constexpr std::size_t kInlinePool = 8;

constexpr std::size_t kSmallTasks = 100;
constexpr std::size_t kSmallCpus = 4;
constexpr std::size_t kLargeTasks = 1000;
constexpr std::size_t kLargeCpus = 16;
constexpr std::size_t kStreamArrivals = 4;
constexpr std::size_t kStreamTasks = 250;

/// Wire seeds stay exact JSON integers (the parser accepts <= 2^53).
std::uint64_t wire_seed(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  return util::derive_seed(seed, a, b) & 0xffffffffu;
}

Source random_source(std::size_t tasks, std::size_t cpus, std::uint64_t seed) {
  Source source;
  source.spec.kind = "random";
  source.spec.tasks = tasks;
  source.spec.cpus = cpus;
  source.seed = seed;
  return source;
}

std::string generator_json(const net::GeneratorSpec& spec) {
  return "{\"kind\":\"random\",\"tasks\":" + std::to_string(spec.tasks) +
         ",\"cpus\":" + std::to_string(spec.cpus) + "}";
}

std::string schedulers_json(const std::vector<std::string>& names) {
  std::string out = "[";
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (i > 0) out += ',';
    out += "\"" + names[i] + "\"";
  }
  return out + "]";
}

/// Strips the id-less prefix and the '\n' off a rendered response.
std::string tail_of(const std::string& rendered) {
  return rendered.substr(kNoIdPrefix.size(),
                         rendered.size() - kNoIdPrefix.size() - 1);
}

double hdlts_makespan(const hdlts::sched::Registry& registry,
                      const sim::Workload& workload) {
  return registry.make("hdlts")->schedule(sim::Problem(workload)).makespan();
}

std::string expected_static(const hdlts::sched::Registry& registry,
                            const sim::Workload& workload,
                            const std::vector<std::string>& schedulers,
                            std::uint64_t seed) {
  const sim::Problem problem(workload);
  std::vector<std::string> entries;
  for (const std::string& name : schedulers) {
    const double makespan = registry.make(name)->schedule(problem).makespan();
    entries.push_back(net::render_static_entry(name, true, makespan, ""));
  }
  return tail_of(
      net::render_static_response(std::nullopt, kTenant, seed, entries));
}

Request generated_static(const hdlts::sched::Registry& registry,
                         const Source& source,
                         const std::vector<std::string>& schedulers) {
  Request r;
  r.shape = Shape::kGeneratedStatic;
  r.sources = {source};
  r.tasks = source.spec.tasks;
  r.body = "\"kind\":\"static\",\"seed\":" + std::to_string(source.seed) +
           ",\"generator\":" + generator_json(source.spec) +
           ",\"schedulers\":" + schedulers_json(schedulers) + "}";
  r.expected_tail =
      expected_static(registry, net::make_workload(source.spec, source.seed),
                      schedulers, source.seed);
  return r;
}

Request online(const hdlts::sched::Registry& registry, const Source& source,
               util::Rng& rng) {
  const sim::Workload workload = net::make_workload(source.spec, source.seed);
  // One processor fails part-way through the clean HDLTS schedule, so the
  // failure always strikes while work is still running.
  core::ProcFailure failure;
  failure.proc = static_cast<hdlts::platform::ProcId>(rng.uniform_int(
      0, static_cast<std::int64_t>(source.spec.cpus) - 1));
  failure.time = hdlts_makespan(registry, workload) * rng.uniform(0.25, 0.75);
  const std::vector<core::ProcFailure> failures{failure};

  Request r;
  r.shape = Shape::kOnline;
  r.sources = {source};
  r.tasks = source.spec.tasks;
  r.body = "\"kind\":\"online\",\"seed\":" + std::to_string(source.seed) +
           ",\"generator\":" + generator_json(source.spec) +
           ",\"failures\":[{\"proc\":" + std::to_string(failure.proc) +
           ",\"time\":" + util::json_number(failure.time) + "}]}";
  r.expected_tail = tail_of(net::render_online_response(
      std::nullopt, kTenant, source.seed,
      core::run_online(workload, failures)));
  return r;
}

Request stream(const hdlts::sched::Registry& registry,
               const std::vector<Source>& sources, std::uint64_t seed,
               util::Rng& rng) {
  // Each workflow arrives while its predecessor is still running: the gap
  // is a seeded fraction of the predecessor's stand-alone HDLTS makespan.
  std::vector<core::StreamArrival> arrivals;
  std::string list;
  double at = 0.0;
  for (const Source& source : sources) {
    core::StreamArrival arrival{net::make_workload(source.spec, source.seed),
                                at};
    if (!list.empty()) list += ',';
    list += "{\"arrival\":" + util::json_number(at) +
            ",\"seed\":" + std::to_string(source.seed) +
            ",\"generator\":" + generator_json(source.spec) + "}";
    at += hdlts_makespan(registry, arrival.workload) * rng.uniform(0.1, 0.5);
    arrivals.push_back(std::move(arrival));
  }
  core::StreamOptions options;
  options.policy = core::StreamPolicy::kHdltsPv;

  Request r;
  r.shape = Shape::kStream;
  r.sources = sources;
  r.tasks = sources.size() * sources.front().spec.tasks;
  r.body = "\"kind\":\"stream\",\"seed\":" + std::to_string(seed) +
           ",\"policy\":\"pv\",\"arrivals\":[" + list + "]}";
  r.expected_tail = tail_of(net::render_stream_response(
      std::nullopt, kTenant, seed, core::run_stream(arrivals, options)));
  return r;
}

Request inline_static(const hdlts::sched::Registry& registry,
                      const Source& source) {
  std::ostringstream text;
  hdlts::io::write_workload(text, net::make_workload(source.spec, source.seed));

  Request r;
  r.shape = Shape::kInlineStatic;
  r.sources = {source};
  r.tasks = source.spec.tasks;
  r.workload_text = text.str();
  r.body = "\"kind\":\"static\",\"seed\":" + std::to_string(source.seed) +
           ",\"workload\":\"" + util::json_escape(r.workload_text) +
           "\",\"schedulers\":[\"hdlts\"]}";
  // The daemon schedules what it parses, so the expectation comes from the
  // re-read text rather than the generated workload.
  std::istringstream in(r.workload_text);
  r.expected_tail = expected_static(registry, hdlts::io::read_workload(in),
                                    {"hdlts"}, source.seed);
  return r;
}

}  // namespace

std::optional<WorkloadKind> workload_from_name(std::string_view name) {
  for (const WorkloadKind kind :
       {WorkloadKind::kSmallGenerated, WorkloadKind::kLargeMixed,
        WorkloadKind::kInlineLarge}) {
    if (workload_name(kind) == name) return kind;
  }
  return std::nullopt;
}

std::string_view workload_name(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kSmallGenerated:
      return "small_generated";
    case WorkloadKind::kLargeMixed:
      return "large_mixed";
    case WorkloadKind::kInlineLarge:
      return "inline_large";
  }
  return "?";
}

std::string request_frame(const Request& request, std::uint64_t id) {
  return "{\"op\":\"submit\",\"id\":" + std::to_string(id) + "," +
         request.body;
}

bool response_matches(const Request& request, std::uint64_t id,
                      std::string_view response) {
  if (response.substr(0, kOkPrefix.size()) != kOkPrefix) return false;
  response.remove_prefix(kOkPrefix.size());
  std::uint64_t got = 0;
  const auto [end, ec] =
      std::from_chars(response.data(), response.data() + response.size(), got);
  if (ec != std::errc() || got != id) return false;
  response.remove_prefix(static_cast<std::size_t>(end - response.data()));
  return response.size() == request.expected_tail.size() + 1 &&
         response.front() == ',' &&
         response.substr(1) == request.expected_tail;
}

std::vector<Request> make_pool(WorkloadKind kind, std::uint64_t seed,
                               const hdlts::sched::Registry& registry) {
  std::vector<Request> pool;
  util::Rng rng(util::derive_seed(seed, 1));
  switch (kind) {
    case WorkloadKind::kSmallGenerated:
      for (std::size_t i = 0; i < kSmallPool; ++i) {
        pool.push_back(generated_static(
            registry,
            random_source(kSmallTasks, kSmallCpus, wire_seed(seed, 2, i)),
            {"hdlts"}));
      }
      break;
    case WorkloadKind::kLargeMixed:
      for (std::size_t i = 0; i < kLargePool; ++i) {
        const Source source =
            random_source(kLargeTasks, kLargeCpus, wire_seed(seed, 3, i));
        if (i % 3 == 0) {
          pool.push_back(
              generated_static(registry, source, {"hdlts", "heft", "cpop"}));
        } else if (i % 3 == 1) {
          pool.push_back(online(registry, source, rng));
        } else {
          std::vector<Source> sources;
          for (std::size_t a = 0; a < kStreamArrivals; ++a) {
            sources.push_back(random_source(
                kStreamTasks, kLargeCpus,
                wire_seed(seed, 4, i * kStreamArrivals + a)));
          }
          pool.push_back(stream(registry, sources, wire_seed(seed, 5, i), rng));
        }
      }
      break;
    case WorkloadKind::kInlineLarge:
      for (std::size_t i = 0; i < kInlinePool; ++i) {
        pool.push_back(inline_static(
            registry,
            random_source(kLargeTasks, kLargeCpus, wire_seed(seed, 6, i))));
      }
      break;
  }
  return pool;
}

}  // namespace servebench
