// Harness: owns the generator and a PipelineExecutor with a consistent
// configuration (campus defaults + the generator's CT database, or no CT
// in file mode). One Harness is one pipeline pass; the experiment
// registry attaches any number of experiments' analyzers to a shared
// pass before run(). Formerly bench_common's CampusRun.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

#include "mtlscope/core/analyzers.hpp"
#include "mtlscope/core/executor.hpp"
#include "mtlscope/core/pipeline.hpp"
#include "mtlscope/core/shard_state.hpp"
#include "mtlscope/experiments/options.hpp"
#include "mtlscope/gen/generator.hpp"

namespace mtlscope::experiments {

class Harness {
 public:
  /// File-mode aware: when options.file_mode(), run() streams (or, with
  /// --in-memory, slurps) the given logs instead of generating a trace.
  Harness(gen::CampusModel model, const RunOptions& options);

  /// Reduce mode (mtlscope reduce): wraps already-merged, finalized
  /// shard state instead of executing a pipeline pass. pipeline() and
  /// ledger() serve the merged state immediately; experiments read
  /// analyzer results from analyzers() instead of attaching Sharded
  /// instances. run() must not be called.
  Harness(const RunOptions& options, core::ShardState state);

  /// The merged, finalized pipeline. Valid only after run().
  core::Pipeline& pipeline();
  const core::PipelineExecutor& executor() const { return executor_; }
  const gen::TraceGenerator& generator() const { return generator_; }

  std::size_t shard_count() const { return executor_.shard_count(); }

  /// One analyzer instance per shard; merge with std::move(s).merged()
  /// after run().
  template <typename A>
  void attach(core::Sharded<A>& sharded) {
    executor_.attach(sharded);
  }

  /// Generates the trace on the executor's shard count (or opens the log
  /// files), then runs the executor. wall_seconds() covers the pipeline
  /// execution only; generate_seconds() covers trace generation (0 in
  /// file mode). File-mode failures print the structured IngestError
  /// and exit(1).
  void run();

  double wall_seconds() const { return wall_seconds_; }
  double generate_seconds() const { return generate_seconds_; }
  std::size_t records_processed() const { return records_; }
  /// Bytes of Zeek log input parsed (ssl + x509). 0 in synthetic mode.
  std::uint64_t parse_bytes() const { return parse_bytes_; }
  /// Quarantine ledger from the run. Pristine in synthetic mode and for
  /// clean inputs; populated (finalized, deterministic) after a file-mode
  /// run that skipped records or degraded I/O. See DESIGN §11.
  const core::ErrorLedger& ledger() const { return ledger_; }
  double records_per_second() const {
    return wall_seconds_ <= 0 ? 0
                              : static_cast<double>(records_) / wall_seconds_;
  }
  const RunOptions& options() const { return options_; }

  /// True for a reduce-mode harness built from shard state.
  bool reduced() const { return reduced_; }
  /// The merged analyzer states (reduce mode only). Experiments copy the
  /// analyzer they need, so several experiments can share one reduce.
  const core::AnalyzerSet& analyzers() const;

 private:
  void run_files();

  gen::TraceGenerator generator_;
  RunOptions options_;
  core::PipelineExecutor executor_;
  std::optional<core::Pipeline> pipeline_;
  double wall_seconds_ = 0;
  double generate_seconds_ = 0;
  std::size_t records_ = 0;
  std::uint64_t parse_bytes_ = 0;
  core::ErrorLedger ledger_;
  bool reduced_ = false;
  core::AnalyzerSet analyzers_;
};

/// Restricts a model to clusters whose name starts with any of the given
/// prefixes, and drops the background / interception volume. Used by
/// experiments that analyze one traffic slice (e.g. Table 3 is
/// inbound-only) so they can afford low connection scales.
void keep_only_clusters(gen::CampusModel& model,
                        std::initializer_list<const char*> prefixes);

}  // namespace mtlscope::experiments
