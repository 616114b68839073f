#include "spans.h"

#include <fstream>

namespace servebench {

std::map<std::string, SpanSum> Tracer::summarize() const {
  std::map<std::string, SpanSum> out;
  for (const auto& log : logs_) {
    for (const Span& s : log->spans()) {
      SpanSum& sum = out[s.name];
      sum.items += s.items;
      sum.total_ns += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  return out;
}

std::size_t Tracer::span_count() const {
  std::size_t n = 0;
  for (const auto& log : logs_) n += log->spans().size();
  return n;
}

bool Tracer::write(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  for (const auto& log : logs_) {
    for (const Span& s : log->spans()) {
      os << "{\"run\":\"" << run_id_ << "\",\"name\":\"" << s.name
         << "\",\"id\":" << s.id << ",\"parent\":" << s.parent
         << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
         << ",\"items\":" << s.items << "}\n";
    }
  }
  return static_cast<bool>(os.flush());
}

}  // namespace servebench
