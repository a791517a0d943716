// In-memory span log for the traced run. Spans are recorded by the
// benchmark itself, around its calls into each layer: name, start, end,
// parent span and request id. Nothing is written until the run ends, when
// the log is dumped as Chrome-trace JSON (chrome://tracing, Perfetto).
#pragma once

#include <chrono>
#include <cstdint>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

namespace servebench {

inline constexpr std::size_t kNoParent =
    std::numeric_limits<std::size_t>::max();

struct Span {
  std::string name;
  std::uint64_t start_ns = 0;  ///< since the log's origin
  std::uint64_t end_ns = 0;
  std::size_t parent = kNoParent;  ///< index into the log
  std::uint64_t request = 0;       ///< request id shared by a request's spans
  std::uint32_t lane = 0;          ///< Chrome-trace thread row

  double ms() const { return static_cast<double>(end_ns - start_ns) * 1e-6; }
};

class SpanLog {
 public:
  SpanLog() : origin_(std::chrono::steady_clock::now()) {}

  /// Opens a span now (lane 0); returns its index for end().
  std::size_t begin(std::string name, std::uint64_t request,
                    std::size_t parent = kNoParent);
  void end(std::size_t index);
  /// Records a span whose endpoints the caller already measured.
  std::size_t add(std::string name, std::chrono::steady_clock::time_point start,
                  std::chrono::steady_clock::time_point end,
                  std::uint64_t request, std::uint32_t lane);

  const std::vector<Span>& spans() const { return spans_; }

  void write_chrome_trace(std::ostream& os) const;

 private:
  std::uint64_t since_origin(std::chrono::steady_clock::time_point t) const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
};

}  // namespace servebench
