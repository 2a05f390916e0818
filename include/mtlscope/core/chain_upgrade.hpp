// Phase B of the executor: the chain-level public upgrade (§3.2.1). A
// leaf goes public when any intermediate on an established chain it
// heads already is; upgrades chain through later connections, so they
// apply in stream order. The pass has two halves. Workers resolve each
// part's rows to registry entries (ChainResolver); the caller's thread
// folds the resolved lists in stream order (fold_upgrades). Workers only
// call CertMap::find(), whose map structure phase A froze, and never read
// issuer_class, which the fold writes.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "mtlscope/core/pipeline.hpp"
#include "mtlscope/zeek/parse_plan.hpp"

namespace mtlscope::core {

/// One part's resolved chains. Per established row, the server chain and
/// then the client chain each append the leaf's entry and every
/// registered intermediate's, closed by a null. A chain that cannot
/// upgrade (no intermediate, unregistered leaf, no registered
/// intermediate) appends nothing.
using ResolvedChains = std::vector<CertFacts*>;

/// The resolve half, fed one row at a time by any part source. Every
/// source ends in the one resolve step over fuid views, so the layout
/// above is written in one place.
class ChainResolver {
 public:
  ChainResolver(Pipeline::CertMap& registry, ResolvedChains& out)
      : registry_(registry), out_(out) {}

  /// A decoded row (container and in-memory parts).
  void add(const zeek::SslRecord& row);
  /// An accepted TSV row's raw fields (zeek::scan_ssl_chains): split and
  /// looked up as views, so nothing is interned.
  void add(const zeek::SslChainRow& row);

 private:
  void resolve(std::span<const std::string_view> fuids);

  Pipeline::CertMap& registry_;
  ResolvedChains& out_;
  std::vector<std::string_view> fuids_;  // scratch, reused per chain
  std::string storage_;                  // unescaped fuids of one chain
};

/// The fold half: applies one part's resolved chains in stream order.
void fold_upgrades(const ResolvedChains& resolved);

}  // namespace mtlscope::core
