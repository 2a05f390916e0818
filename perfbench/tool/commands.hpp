// The mtlbench subcommands (see mtlbench.cpp for the usage summary).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "mtlscope/experiments/registry.hpp"

namespace mtlbench {

int cmd_prepare(const Flags& flags);
int cmd_setup(const Flags& flags);
int cmd_trace(const Flags& flags);
int cmd_trace_watch(const Flags& flags);

/// The experiments the traced watch replay publishes.
inline constexpr const char* kWatchExperiments = "table1,fig1,serials";

/// One pipeline pass of a synthetic run, grouped exactly as
/// `mtlscope run` groups experiments: same model key, scales and seed.
struct Pass {
  mtlscope::experiments::RunOptions options;  // resolved for the lead
  std::vector<const mtlscope::experiments::ExperimentRegistry::Entry*> entries;
};
std::vector<Pass> synthetic_passes(const std::vector<std::string>& names,
                                   const mtlscope::experiments::RunOptions& base);

/// paper_model(...) for a pass, with its seed and every member's
/// prepare_model() applied.
mtlscope::gen::CampusModel pass_model(const Pass& pass);

std::vector<std::string> split_names(const std::string& csv);

}  // namespace mtlbench
