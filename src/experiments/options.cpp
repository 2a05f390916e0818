#include "mtlscope/experiments/options.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <type_traits>

#include "mtlscope/colfmt/container.hpp"

namespace mtlscope::experiments {

bool RunOptions::compact_input() const {
  if (!file_mode()) return false;
  switch (format) {
    case InputFormat::kCompact:
      return true;
    case InputFormat::kZeek:
      return false;
    case InputFormat::kAuto:
      return colfmt::is_container_file(ssl_log);
  }
  return false;
}

std::size_t RunOptions::chunk_bytes() const {
  const double bytes = chunk_mb * 1024.0 * 1024.0;
  if (bytes < 1.0) return 1;
  return static_cast<std::size_t>(bytes);
}

ingest::IngestOptions RunOptions::ingest_options() const {
  ingest::IngestOptions options;
  options.chunk_bytes = chunk_bytes();
  options.force_buffered = force_buffered;
  options.errors = errors;
  return options;
}

RunOptions RunOptions::resolved(double default_cert_scale,
                                double default_conn_scale) const {
  RunOptions out = *this;
  out.cert_scale = cert_scale_override.value_or(default_cert_scale);
  out.conn_scale = conn_scale_override.value_or(default_conn_scale);
  return out;
}

template <class T>
T flag_value(const char* flag, const char* text, T lo, T hi) {
  T value{};
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, value);
  // `!(in range)` also refuses a NaN.
  if (ec != std::errc() || ptr != end || ptr == text ||
      !(value >= lo && value <= hi)) {
    const auto show = [](T v) {
      if constexpr (std::is_floating_point_v<T>) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%g", v);
        return std::string(buf);
      } else {
        return std::to_string(v);
      }
    };
    std::fprintf(stderr, "bad %s%s: want %s in [%s, %s]\n", flag, text,
                 std::is_floating_point_v<T> ? "a number" : "an integer",
                 show(lo).c_str(), show(hi).c_str());
    std::exit(2);
  }
  return value;
}

template std::uint32_t flag_value(const char*, const char*, std::uint32_t,
                                  std::uint32_t);
template std::uint64_t flag_value(const char*, const char*, std::uint64_t,
                                  std::uint64_t);
template double flag_value(const char*, const char*, double, double);

std::optional<std::int64_t> window_seconds(std::string_view text) {
  if (text == "hour") return 3600;
  if (text == "day") return 86400;
  if (text == "week") return 604800;
  std::int64_t seconds = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, seconds);
  if (ec != std::errc() || ptr != end || seconds <= 0) return std::nullopt;
  return seconds;
}

}  // namespace mtlscope::experiments
