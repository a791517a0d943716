#include "spans.hpp"

#include "hdlts/util/json.hpp"

namespace servebench {

std::uint64_t SpanLog::since_origin(
    std::chrono::steady_clock::time_point t) const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
          .count());
}

std::size_t SpanLog::begin(std::string name, std::uint64_t request,
                           std::size_t parent) {
  Span span;
  span.name = std::move(name);
  span.parent = parent;
  span.request = request;
  span.start_ns = since_origin(std::chrono::steady_clock::now());
  spans_.push_back(std::move(span));
  return spans_.size() - 1;
}

void SpanLog::end(std::size_t index) {
  spans_[index].end_ns = since_origin(std::chrono::steady_clock::now());
}

std::size_t SpanLog::add(std::string name,
                         std::chrono::steady_clock::time_point start,
                         std::chrono::steady_clock::time_point end,
                         std::uint64_t request, std::uint32_t lane) {
  Span span;
  span.name = std::move(name);
  span.request = request;
  span.lane = lane;
  span.start_ns = since_origin(start);
  span.end_ns = since_origin(end);
  spans_.push_back(std::move(span));
  return spans_.size() - 1;
}

void SpanLog::write_chrome_trace(std::ostream& os) const {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i > 0) os << ',';
    os << "\n{\"name\":\"" << hdlts::util::json_escape(s.name)
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.lane << ",\"ts\":"
       << hdlts::util::json_number(static_cast<double>(s.start_ns) * 1e-3)
       << ",\"dur\":"
       << hdlts::util::json_number(
              static_cast<double>(s.end_ns - s.start_ns) * 1e-3)
       << ",\"args\":{\"span\":" << i << ",\"request_id\":" << s.request;
    if (s.parent != kNoParent) os << ",\"parent\":" << s.parent;
    os << "}}";
  }
  os << "\n]}\n";
}

}  // namespace servebench
