// Request pools for the service benchmark: each workload is a fixed cycle
// of submit frames derived from the command-line seed, together with the
// byte-exact response the daemon must send for each, rendered at set-up
// from a direct library run (net::render_* over the same inputs).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "hdlts/net/protocol.hpp"
#include "hdlts/sched/registry.hpp"

namespace servebench {

enum class WorkloadKind {
  kSmallGenerated,  ///< 100-task random DAGs on 4 CPUs, hdlts, generator frames
  kLargeMixed,      ///< 1k-task / 16 CPUs: static x3, online, 4-arrival stream
  kInlineLarge,     ///< 1k-task / 16 CPUs sent inline (~450 KB frames), hdlts
};

std::optional<WorkloadKind> workload_from_name(std::string_view name);
std::string_view workload_name(WorkloadKind kind);

/// What a request asks the daemon to do; the set-up warm-up sends every
/// shape of a pool to every engine worker.
enum class Shape {
  kGeneratedStatic,  ///< generator frame, static schedulers
  kOnline,           ///< generator frame, one processor failure
  kStream,           ///< generator arrivals, pv policy
  kInlineStatic,     ///< inline workload text, static schedulers
};

/// A generator invocation (the workload a frame names or carries).
struct Source {
  hdlts::net::GeneratorSpec spec;
  std::uint64_t seed = 0;
};

struct Request {
  Shape shape = Shape::kGeneratedStatic;
  /// The frame after `{"op":"submit","id":N,` — the id is spliced in per
  /// send so every request on the wire is distinct.
  std::string body;
  /// The expected response after `{"ok":true,"id":N,`, without the '\n'.
  std::string expected_tail;
  /// The workloads behind the frame: one for generator and inline frames
  /// (inline text is write_workload of this source), one per arrival for
  /// streams. The traced replay times generation from these.
  std::vector<Source> sources;
  /// Inline frames only: the workload text carried in the frame.
  std::string workload_text;
  std::size_t tasks = 0;  ///< total tasks scheduled (decisions per scheduler)
};

/// Full request frame for `id` (no trailing '\n').
std::string request_frame(const Request& request, std::uint64_t id);

/// True when `response` (no '\n') is the ok response to `request` under `id`.
bool response_matches(const Request& request, std::uint64_t id,
                      std::string_view response);

/// Builds the request cycle of `kind` from `seed`. Every generator seed,
/// inline text, failure time and arrival time derives from `seed`; the
/// expected responses come from direct library runs through `registry`.
std::vector<Request> make_pool(WorkloadKind kind, std::uint64_t seed,
                               const hdlts::sched::Registry& registry);

}  // namespace servebench
