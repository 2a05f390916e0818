#include "common.hpp"

#include <sys/resource.h>

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace mtlbench {

Flags::Flags(int argc, char** argv, int first) {
  for (int i = first; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg.substr(0, 2) != "--") {
      std::fprintf(stderr, "mtlbench: unexpected argument %s\n", argv[i]);
      std::exit(2);
    }
    arg.remove_prefix(2);
    const std::size_t eq = arg.find('=');
    if (eq == std::string_view::npos) {
      values_[std::string(arg)] = "1";
    } else {
      values_[std::string(arg.substr(0, eq))] = std::string(arg.substr(eq + 1));
    }
  }
}

std::string Flags::get(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) {
    std::fprintf(stderr, "mtlbench: missing --%s=\n", key.c_str());
    std::exit(2);
  }
  return it->second;
}

double Flags::number(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : std::atof(it->second.c_str());
}

std::string json_quote(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

JsonObject& JsonObject::num(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  members_.emplace_back(key, buf);
  return *this;
}

JsonObject& JsonObject::str(const std::string& key, const std::string& value) {
  members_.emplace_back(key, json_quote(value));
  return *this;
}

std::string JsonObject::dump() const {
  std::string out = "{";
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (i != 0) out += ", ";
    out += json_quote(members_[i].first);
    out += ": ";
    out += members_[i].second;
  }
  out += "}";
  return out;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return std::move(out).str();
}

LogRows split_log(std::string text) {
  LogRows log;
  log.text = std::move(text);
  const std::string_view all = log.text;
  std::size_t pos = 0;
  while (pos < all.size() && all[pos] == '#') {
    const std::size_t eol = all.find('\n', pos);
    pos = eol == std::string_view::npos ? all.size() : eol + 1;
  }
  log.header = all.substr(0, pos);
  while (pos < all.size()) {
    std::size_t eol = all.find('\n', pos);
    eol = eol == std::string_view::npos ? all.size() : eol + 1;
    if (all[pos] != '#') log.rows.push_back(all.substr(pos, eol - pos));
    pos = eol;
  }
  return log;
}

std::int64_t row_ts(std::string_view row) {
  std::int64_t ts = 0;
  std::from_chars(row.data(), row.data() + row.size(), ts);
  return ts;
}

void cpu_times(double* user_s, double* sys_s) {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  *user_s = static_cast<double>(usage.ru_utime.tv_sec) +
            static_cast<double>(usage.ru_utime.tv_usec) * 1e-6;
  *sys_s = static_cast<double>(usage.ru_stime.tv_sec) +
           static_cast<double>(usage.ru_stime.tv_usec) * 1e-6;
}

}  // namespace mtlbench
