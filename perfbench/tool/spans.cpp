#include "spans.hpp"

#include <cstdio>
#include <fstream>

namespace mtlbench {

double Tracer::total(const std::string& name) const {
  double sum = 0;
  for (const Span& span : spans_) {
    if (span.name == name) sum += span.end - span.start;
  }
  return sum;
}

double Tracer::self(const std::string& name) const {
  std::vector<double> children(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      children[static_cast<std::size_t>(span.parent)] += span.end - span.start;
    }
  }
  double sum = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) {
      sum += spans_[i].end - spans_[i].start - children[i];
    }
  }
  return sum;
}

std::size_t Tracer::count(const std::string& name) const {
  std::size_t n = 0;
  for (const Span& span : spans_) n += span.name == name ? 1 : 0;
  return n;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  char buf[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d}}",
                  first ? "" : ",\n", span.name.c_str(),
                  span.name.substr(0, span.name.find('.')).c_str(),
                  span.start * 1e6, (span.end - span.start) * 1e6, i,
                  span.parent);
    out << buf;
    first = false;
  }
  const double end = spans_.empty() ? 0 : spans_.back().end;
  for (const auto& [name, value] : counters_) {
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"ph\":\"C\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"args\":{\"value\":%.17g}}",
                  first ? "" : ",\n", name.c_str(), end * 1e6, value);
    out << buf;
    first = false;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace mtlbench
