// Helpers shared by the *_check programs, which drive the mtlscope CLI
// end to end as child processes and compare the bytes it writes.
#pragma once

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace check {

inline std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return std::move(out).str();
}

inline void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

inline bool contains(const std::string& haystack, const char* needle) {
  return haystack.find(needle) != std::string::npos;
}

/// Splits a Zeek TSV log into its '#'-metadata header and data rows
/// (newline included in every element).
inline void split_log(const std::string& text, std::string* header,
                      std::vector<std::string>* rows) {
  std::size_t pos = 0;
  bool in_header = true;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size() - 1;
    const std::string line = text.substr(pos, eol - pos + 1);
    pos = eol + 1;
    if (in_header && !line.empty() && line[0] == '#') {
      *header += line;
    } else {
      in_header = false;
      rows->push_back(line);
    }
  }
}

/// Starts `binary args...` with stdout appended to `out_path` and stderr
/// appended to `err_path`: the same file when the paths are equal, the
/// parent's stderr when `err_path` is empty. Runs whose stdout is
/// byte-compared keep stderr apart, because it carries advisory notes
/// (e.g. the --threads clamp on small machines). `env` adds "K=V"
/// entries to the child's environment. Returns the pid, or -1.
inline pid_t spawn_child(const std::string& binary,
                         const std::vector<std::string>& args,
                         const std::string& out_path,
                         const std::string& err_path = {},
                         const std::vector<std::string>& env = {}) {
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(binary.c_str()));
  for (const auto& arg : args) argv.push_back(const_cast<char*>(arg.c_str()));
  argv.push_back(nullptr);

  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("fork");
    return -1;
  }
  if (pid == 0) {
    const int flags = O_WRONLY | O_CREAT | O_APPEND;
    const int fd = open(out_path.c_str(), flags, 0644);
    if (fd < 0 || dup2(fd, STDOUT_FILENO) < 0) _exit(127);
    if (!err_path.empty()) {
      const int err_fd =
          err_path == out_path ? fd : open(err_path.c_str(), flags, 0644);
      if (err_fd < 0 || dup2(err_fd, STDERR_FILENO) < 0) _exit(127);
      if (err_fd != fd) close(err_fd);
    }
    close(fd);
    for (const auto& kv : env) putenv(const_cast<char*>(kv.c_str()));
    execv(binary.c_str(), argv.data());
    _exit(127);
  }
  return pid;
}

/// Exit code, or -1 when the child died to a signal. `max_rss_kb`, when
/// given, receives the child's peak RSS in KiB from its rusage, so the
/// parent never contaminates the measurement.
inline int wait_child(pid_t pid, long* max_rss_kb = nullptr) {
  int status = 0;
  struct rusage usage {};
  if (wait4(pid, &status, 0, &usage) < 0) {
    std::perror("wait4");
    return -1;
  }
  if (max_rss_kb != nullptr) *max_rss_kb = usage.ru_maxrss;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

struct RunResult {
  std::string output;
  int exit_code = -1;
  long max_rss_kb = 0;
};

/// Runs `binary args...` to exit with stdout captured fresh in
/// `capture_path`. stderr goes to the parent's unless `capture_stderr`,
/// which keeps it in `capture_path`.stderr and appends it to `output`
/// after stdout.
inline RunResult run_child(const std::string& binary,
                           const std::vector<std::string>& args,
                           const std::string& capture_path,
                           bool capture_stderr = false) {
  const std::string err_path = capture_stderr ? capture_path + ".stderr" : "";
  std::error_code ec;
  std::filesystem::remove(capture_path, ec);
  if (capture_stderr) std::filesystem::remove(err_path, ec);
  RunResult result;
  const pid_t pid = spawn_child(binary, args, capture_path, err_path);
  if (pid < 0) return result;
  result.exit_code = wait_child(pid, &result.max_rss_kb);
  result.output = slurp(capture_path);
  if (capture_stderr) result.output += slurp(err_path);
  return result;
}

}  // namespace check
