// Turns a CampusModel into a stream of TlsConnections (with real DER
// certificates attached) plus the side artifacts the pipeline needs: the
// CT database and the campus-CA name list.
//
// Generation runs in two stages (DESIGN §17): a serial plan stage makes
// every random draw and records what to build, and a pure materialize
// stage signs, hashes and renders that plan, optionally on worker
// threads.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "mtlscope/crypto/rng.hpp"
#include "mtlscope/ctlog/ct_database.hpp"
#include "mtlscope/gen/model.hpp"
#include "mtlscope/tls/connection.hpp"
#include "mtlscope/trust/authority.hpp"
#include "mtlscope/zeek/records.hpp"

namespace mtlscope::gen {

class TraceGenerator {
 public:
  using Sink = std::function<void(const tls::TlsConnection&)>;

  explicit TraceGenerator(CampusModel model);
  ~TraceGenerator();

  TraceGenerator(const TraceGenerator&) = delete;
  TraceGenerator& operator=(const TraceGenerator&) = delete;

  /// Generates the whole trace, invoking `sink` once per connection in
  /// trace order. Deterministic for a fixed model (including seed). Call
  /// at most one of generate() and generate_dataset(), once.
  void generate(const Sink& sink);

  /// Generates into an in-memory Zeek dataset. `threads` workers build
  /// certificates and rows (1 runs inline); the dataset is byte-identical
  /// for every thread count, and to generate() fed through
  /// Dataset::add_connection.
  zeek::Dataset generate_dataset(std::size_t threads = 1);

  /// The CT database populated during generation (legitimate public
  /// issuances only) — input to the interception filter.
  const ctlog::CtDatabase& ct_database() const { return ct_; }

  /// Issuer-organization names of the university's CAs — input to the
  /// pipeline's user-account classification and issuer categorization.
  static std::vector<std::string> campus_issuer_names();

  /// The organization names the model uses for dummy issuers.
  static std::vector<std::string> dummy_issuer_names();

  struct Stats {
    std::size_t connections = 0;
    std::size_t mutual_connections = 0;
    std::size_t certificates_minted = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  class Impl;
  std::unique_ptr<Impl> impl_;
  ctlog::CtDatabase ct_;
  Stats stats_;
};

}  // namespace mtlscope::gen
