// Shared helpers of the mtlbench subcommands: flag parsing, the
// time-sorted log layout, and a tiny JSON object writer for results.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace mtlbench {

/// `--key=value` flags (a bare `--key` maps to "1").
class Flags {
 public:
  Flags(int argc, char** argv, int first);
  bool has(const std::string& key) const { return values_.count(key) != 0; }
  /// Exits(2) with a message when a required flag is missing.
  std::string get(const std::string& key) const;
  double number(const std::string& key, double fallback) const;

 private:
  std::map<std::string, std::string> values_;
};

/// Ordered JSON object with number and string members.
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double value);
  JsonObject& str(const std::string& key, const std::string& value);
  std::string dump() const;

 private:
  std::vector<std::pair<std::string, std::string>> members_;
};

std::string json_quote(std::string_view text);

std::string slurp(const std::string& path);

/// A Zeek log split into its '#' header and data rows (each row keeps
/// its trailing newline).
struct LogRows {
  std::string text;
  std::string_view header;
  std::vector<std::string_view> rows;
};
LogRows split_log(std::string text);

/// Integer seconds of a row's leading `ts` field, as the Zeek parser
/// decodes it (the part before the '.').
std::int64_t row_ts(std::string_view row);

/// CPU seconds (user, sys) of this process so far.
void cpu_times(double* user_s, double* sys_s);

}  // namespace mtlbench
