// In-memory span recorder for the benchmark's traced runs. Spans are
// recorded around calls into mtlscope's public functions from the
// benchmark's own code (nothing inside src/ is instrumented). Each span
// keeps its name, start, end and parent; self time is a span's duration
// minus the part its direct children cover. Chrome trace-event JSON is
// written once, at the end of the run. A tracer made with record=false
// keeps nothing, so the same code can be timed with and without spans.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace mtlbench {

class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0;  // seconds since the tracer was created
    double end = 0;
    int parent = -1;
  };

  explicit Tracer(bool record = true)
      : record_(record), origin_(Clock::now()) {}

  double now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }

  /// Opens a span under the innermost open one; returns its id (-1 when
  /// not recording).
  int begin(std::string_view name) {
    if (!record_) return -1;
    const int id = static_cast<int>(spans_.size());
    spans_.push_back(Span{std::string(name), now(), 0,
                          stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(id);
    return id;
  }

  /// Closes the innermost open span, which must be `id`.
  void end(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end = now();
    stack_.pop_back();
  }

  class Scope {
   public:
    Scope(Tracer& tracer, std::string_view name)
        : tracer_(tracer), id_(tracer.begin(name)) {}
    ~Scope() { tracer_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int id_;
  };

  const std::vector<Span>& spans() const { return spans_; }

  /// Summed inclusive duration of every span called `name`.
  double total(const std::string& name) const;
  /// Summed self time (duration minus direct children) of `name`.
  double self(const std::string& name) const;
  std::size_t count(const std::string& name) const;

  /// Counters recorded at the same boundaries as the spans; they are
  /// emitted as Chrome counter events and read back by name.
  void add_counter(const std::string& name, double value) {
    if (record_) counters_[name] += value;
  }
  double counter(const std::string& name) const {
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
  }

  /// Writes every span as a complete ("X") event plus the counters.
  bool write_chrome_trace(const std::string& path) const;

 private:
  using Clock = std::chrono::steady_clock;
  bool record_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::map<std::string, double> counters_;
};

}  // namespace mtlbench
