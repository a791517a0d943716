// The traced run's in-process replay: each pooled request is taken through
// the same public calls the daemon makes for it (parse, workload build,
// Problem, schedule, render), serially on one thread, with a span around
// every call. Layers a workload never calls are still timed on its inputs
// ("probes", outside the request span) so every per-layer metric is defined
// on every workload. A second pass drives the same requests through a bare
// svc::BatchEngine, with the benchmark's in-flight budget, to split engine
// queue wait from service time.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hdlts/net/protocol.hpp"
#include "hdlts/sched/registry.hpp"
#include "pool.hpp"
#include "spans.hpp"

namespace servebench {

struct StageRow {
  std::string name;      ///< span name, e.g. "sim.problem"
  bool on_path = false;  ///< called while serving this workload's requests
  double median_ms = 0;  ///< per request that calls it
  std::size_t requests = 0;
  double share = 0;  ///< of the replayed service time (on-path rows only)
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct ReplayOutput {
  /// Per-layer metrics measured by the replay.
  std::vector<Metric> metrics;
  std::vector<StageRow> stages;
  double service_p50_ms = 0;  ///< median replayed request (span) duration
  std::size_t requests = 0;
  std::size_t mismatches = 0;  ///< rendered responses != expected
};

struct ReplayOptions {
  hdlts::net::Limits limits;
  std::size_t engine_threads = 2;
  std::size_t in_flight = 4;
  double budget_s = 1.0;  ///< serial replay passes stop after this
  std::uint64_t first_request_id = 1;
};

ReplayOutput replay(const std::vector<Request>& pool,
                    const hdlts::sched::Registry& registry,
                    const ReplayOptions& options, SpanLog& log);

}  // namespace servebench
