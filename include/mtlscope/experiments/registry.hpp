// ExperimentRegistry: the single map from experiment name ("table1" …
// "table14", "fig1" … "fig5", "serials", "interception", "dataset_stats",
// "tracking", "renewal", the ablations) to a runner that attaches its
// analyzers to a shared pipeline pass and reports a core::ResultDoc.
// run_experiments() groups requested experiments by model key + resolved
// configuration so one generated trace serves every compatible
// experiment; the mtlscope CLI is the one entry point over this layer
// (`mtlscope run <name>`), and the golden regression drives it.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "mtlscope/core/result_doc.hpp"
#include "mtlscope/experiments/harness.hpp"
#include "mtlscope/experiments/options.hpp"

namespace mtlscope::experiments {

struct ExperimentInfo {
  const char* name;    // registry key, e.g. "table1"
  const char* anchor;  // paper anchor, e.g. "Table 1"
  const char* title;   // banner headline
  double cert_scale;   // default 1:N certificate scale
  double conn_scale;   // default 1:N connection scale
};

/// One experiment: declares its identity and default configuration,
/// optionally narrows the campus model, attaches analyzers before the
/// shared pass runs, and converts analyzer state into a ResultDoc
/// afterwards. Instances are single-use — the registry creates a fresh
/// one per run, so attach() may capture member state.
class Experiment {
 public:
  virtual ~Experiment() = default;

  virtual const ExperimentInfo& info() const = 0;

  /// Pass-sharing key. Experiments with equal keys, scales, and seed run
  /// against one generated trace. "" means the pristine paper model —
  /// the shareable common case; experiments that mutate the model keep
  /// the default (their own name), which isolates them.
  virtual std::string model_key() const { return info().name; }
  /// Model narrowing (cluster slices, background sizing). Only called
  /// for experiments whose model_key() isolates them.
  virtual void prepare_model(gen::CampusModel& model) const {
    (void)model;
  }
  /// Attach Sharded analyzers before run().
  virtual void attach(Harness& run) { (void)run; }
  /// Convert results into doc blocks after run().
  virtual void report(Harness& run, core::ResultDoc& doc) = 0;

  /// Self-driving experiments own their pipeline passes entirely (e.g.
  /// the interception-threshold ablation sweeps configurations); they
  /// implement run_self() instead of attach()/report().
  virtual bool self_driving() const { return false; }
  virtual void run_self(const RunOptions& options, core::ResultDoc& doc) {
    (void)options;
    (void)doc;
  }

  /// True when report() can run from deserialized shard state (a
  /// reduce-mode Harness): everything it reads is the merged pipeline,
  /// the eight standard analyzers, or the ledger. Experiments with
  /// analyzers outside the shard-state format or self-driving passes
  /// override to false.
  virtual bool distributable() const { return !self_driving(); }
};

class ExperimentRegistry {
 public:
  struct Entry {
    ExperimentInfo info;
    std::unique_ptr<Experiment> (*make)();
  };

  static const ExperimentRegistry& instance();

  const std::vector<Entry>& entries() const { return entries_; }
  const Entry* find(const std::string& name) const;
  std::vector<std::string> names() const;
  /// The names of the experiments reduce and watch can serve from shard
  /// state (distributable()), in registry order.
  std::vector<std::string> distributable_names() const;

  void add(ExperimentInfo info, std::unique_ptr<Experiment> (*make)());

 private:
  ExperimentRegistry();
  std::vector<Entry> entries_;
};

/// Runs the named experiments, sharing one pipeline pass between
/// experiments whose model key and resolved configuration agree (in
/// file mode every non-self-driving experiment shares the single log
/// pass). Returns docs in request order. Throws std::invalid_argument
/// for unknown names.
std::vector<core::ResultDoc> run_experiments(
    const std::vector<std::string>& names, const RunOptions& base);

core::ResultDoc run_experiment(const std::string& name,
                               const RunOptions& base);

/// Provenance of a reduce: surfaced as RunInfo::state_format_version /
/// state_digest in the volatile perf envelope.
struct ReduceInfo {
  std::uint32_t state_format_version = 0;
  /// SHA-256 hex prefix over the input state files' payload digests, in
  /// merge order.
  std::string state_digest;
};

/// Runs the named experiments against already-merged shard state (the
/// `mtlscope reduce` backend). The state must be finalized (pipeline and
/// ledger). Every experiment must be distributable(); throws
/// std::invalid_argument otherwise, and for unknown names. The emitted
/// docs are canonical-byte-identical to run_experiments() over the
/// concatenated inputs of the map tasks.
std::vector<core::ResultDoc> run_reduced(const std::vector<std::string>& names,
                                         core::ShardState state,
                                         const ReduceInfo& reduce_info,
                                         const RunOptions& base);

}  // namespace mtlscope::experiments
