// Versioned shard-state files (DESIGN §12): the complete partial state of
// one map task — the merged Pipeline (certificate registry, totals,
// interception state), all eight standard connection analyzers, and the
// ErrorLedger — in a self-describing binary container, framed by the
// sealed-file codec (core/state_io.hpp) the watch checkpoint shares:
//
//   magic "MTLSSTAT" | u32 format version | u32 endian sentinel |
//   u32 section count | sections { u32 id, u64 length, payload } |
//   32-byte SHA-256 over everything before the trailer
//
// Unknown versions, unknown section ids, truncation, digest mismatches
// and out-of-range field values are all structured errors. The digest
// proves integrity, not origin (anyone can re-seal a file), so the
// field lists' checked reader (core/field_list.hpp) is what stops a
// crafted value before an analysis indexes with it. Serialization
// is canonical: ordered containers emit in iteration order and unordered
// ones sort by key first, so state → bytes → state → bytes is
// byte-identical, for any thread count that produced the state.
//
// `mtlscope map` writes these files via PipelineExecutor::fold*();
// `mtlscope reduce` merges them through the same merge() paths a
// single-host multi-shard run uses, which is why the reduced ResultDoc
// is byte-identical to the single-host run over the concatenated inputs.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "mtlscope/core/analyzers.hpp"
#include "mtlscope/core/error_ledger.hpp"
#include "mtlscope/core/pipeline.hpp"

namespace mtlscope::core {

/// Bump on any layout change; readers hard-reject other versions.
inline constexpr std::uint32_t kStateFormatVersion = 1;

/// The eight standard connection analyzers, one instance each — the
/// serializable complement of the Pipeline's certificate registry. The
/// field list names each once: its order is the section order in the
/// state file (each name is its section's) and the merge order in
/// reduce, and the executor attaches and folds the set as one analyzer.
struct AnalyzerSet {
  PrevalenceAnalyzer prevalence;
  ServicePortAnalyzer service_ports;
  InboundAssociationAnalyzer inbound_assoc;
  OutboundFlowAnalyzer outbound_flows;
  DummyIssuerAnalyzer dummy_issuers;
  SerialCollisionAnalyzer serial_collisions;
  SharedCertAnalyzer shared_certs;
  IncorrectDateAnalyzer incorrect_dates;

  template <class V>
  static void fields(V& v) {
    v("prevalence", &AnalyzerSet::prevalence, rule::fold);
    v("service_ports", &AnalyzerSet::service_ports, rule::fold);
    v("inbound_assoc", &AnalyzerSet::inbound_assoc, rule::fold);
    v("outbound_flows", &AnalyzerSet::outbound_flows, rule::fold);
    v("dummy_issuer", &AnalyzerSet::dummy_issuers, rule::fold);
    v("serial_collision", &AnalyzerSet::serial_collisions, rule::fold);
    v("shared_cert", &AnalyzerSet::shared_certs, rule::fold);
    v("incorrect_date", &AnalyzerSet::incorrect_dates, rule::fold);
  }

  /// Feeds one connection to every analyzer, in list order.
  void observe(const EnrichedConnection& conn) {
    auto each = [&](const char*, auto analyzer, auto) {
      (this->*analyzer).observe(conn);
    };
    fields(each);
  }
};

/// Provenance of one shard: what input slice produced it and under which
/// configuration. reduce refuses to merge states whose configurations
/// disagree (seed / scales / mode) — see compatible_meta().
struct ShardStateMeta {
  bool file_mode = false;
  std::uint64_t seed = 0;
  double cert_scale = 1;
  double conn_scale = 1;
  std::string ssl_log;  // producing slice paths (file mode only)
  std::string x509_log;
  /// Bytes of log input parsed for this slice (0 in synthetic mode).
  std::uint64_t parse_bytes = 0;

  /// Slices of one reduce share the configuration (compatible_meta()), so
  /// the first one's stays; paths join and parsed bytes add.
  template <class V>
  static void fields(V& v) {
    v("file_mode", &ShardStateMeta::file_mode, rule::keep);
    v("seed", &ShardStateMeta::seed, rule::keep);
    v("cert_scale", &ShardStateMeta::cert_scale, rule::keep);
    v("conn_scale", &ShardStateMeta::conn_scale, rule::keep);
    v("ssl_log", &ShardStateMeta::ssl_log, rule::join);
    v("x509_log", &ShardStateMeta::x509_log, rule::join);
    v("parse_bytes", &ShardStateMeta::parse_bytes, rule::sum);
  }
};

/// Deterministic one-line rendering of the configuration half of a meta
/// (paths excluded — slices legitimately differ in paths).
std::string describe_meta(const ShardStateMeta& meta);

/// True when two shards may be merged: same mode, seed, and scales.
bool compatible_meta(const ShardStateMeta& a, const ShardStateMeta& b);

/// Complete partial state of one map task.
struct ShardState {
  ShardStateMeta meta;
  /// Merged, *finalized* pipeline of the slice (a result holder after a
  /// load; merge() and the certificate analyses work the same).
  std::optional<Pipeline> pipeline;
  AnalyzerSet analyzers;
  ErrorLedger ledger;

  /// Folds a later slice in, in stream order: pipeline merge + analyzer
  /// merges + ledger merge; parse_bytes add, slice paths concatenate.
  /// Callers re-finalize() the pipeline and the ledger once all slices
  /// are in.
  void merge(ShardState&& other);
};

/// What a state file claims about itself (returned by parse/save/load).
struct StateFileInfo {
  std::uint32_t format_version = 0;
  /// Full SHA-256 hex of the file content before the trailer — the
  /// value the trailer stores and the source of RunInfo::state_digest.
  std::string digest_hex;
  std::uint64_t bytes = 0;
};

/// Serializes the complete container (framing + digest trailer).
std::string serialize_shard_state(const ShardState& state);

/// Parses a complete container. On failure returns nullopt with `error`
/// (when non-null) set to a deterministic message, which names the field
/// when a value is out of range; never throws for malformed input.
/// `info` (when non-null) is filled on success.
std::optional<ShardState> parse_shard_state(std::string_view data,
                                            StateFileInfo* info = nullptr,
                                            std::string* error = nullptr);

/// File wrappers around serialize/parse.
bool save_shard_state(const std::string& path, const ShardState& state,
                      StateFileInfo* info = nullptr,
                      std::string* error = nullptr);
std::optional<ShardState> load_shard_state(const std::string& path,
                                           StateFileInfo* info = nullptr,
                                           std::string* error = nullptr);

}  // namespace mtlscope::core
