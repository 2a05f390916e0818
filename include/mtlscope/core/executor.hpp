// PipelineExecutor: partition-then-merge execution of the measurement
// pipeline (the shape Internet-scale TLS measurement studies use to reach
// billions of records). One engine runs phases A–E over any input seen
// as stream-ordered *parts*, each scannable into ssl/x509 rows under a
// zeek::SslColumns manifest:
//   * TSV logs (run_log_files / run_sources / run_logs): record-aligned
//     byte ranges cut by RecordChunker's rule, parsed in place from the
//     mmap'd (or buffered) file, never materialized whole;
//   * compact containers (run_container): ssl blocks scanned
//     column-direct; x509 blocks decoded in parallel, then row ranges;
//   * in-memory datasets (run): row ranges, a multiple of K of them.
// K shard-local Pipelines (std::thread, no external dependencies) merge
// deterministically in shard order, so the result is bit-identical to
// the serial run for any K, chunk size or input format.
//
// Execution phases:
//   A  certificate registry: CertFacts built per x509 part in parallel
//      windows against the shared Enricher, folded first-fuid-wins in
//      stream order.
//   B  chain upgrades: one in-order pass marking leaves public when any
//      established connection carries a public intermediate for them
//      (§3.2.1). Upgrading is monotonic, so one pass reaches the
//      fixpoint. Workers resolve windows of parts' chains to registry
//      entries (TSV parts straight from the bytes, without building
//      records; core/chain_upgrade.hpp); the caller's thread folds the
//      upgrades in stream order.
//   C  interception pre-pass (when CT is configured), the §3.2.1 filter:
//      shard-local candidate maps (issuer → distinct CT-mismatching SLDs)
//      merged by set union; issuers at or above the confirmation
//      threshold form the frozen confirmed set. Exclusion therefore
//      applies to *all* of a confirmed issuer's connections regardless
//      of stream position or order.
//   D  shard run: K Pipelines over the prepared state, each over a
//      contiguous range of ssl parts, per-shard observers attached.
//   E  merge: shard registries, totals, and analyzer states fold into one
//      Pipeline in shard order; finalize() flags interception certs.
//
// TSV-only duties ride on the TSV parts' in-order hooks: the first
// failing part in stream order is the abort-mode error, skip mode
// quarantines with absolute line numbers, and each stream ends with its
// truncation note and error-budget check. A pass keeps at most one
// window of parts resident: O(chunk_bytes × K) of input plus the
// certificate registry — never O(file size).
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "mtlscope/core/analyzers.hpp"
#include "mtlscope/core/error_ledger.hpp"
#include "mtlscope/core/pipeline.hpp"
#include "mtlscope/core/shard_state.hpp"
#include "mtlscope/ingest/chunker.hpp"
#include "mtlscope/ingest/error.hpp"
#include "mtlscope/ingest/source.hpp"
#include "mtlscope/zeek/log_io.hpp"

namespace mtlscope::colfmt {
class ContainerReader;
}

namespace mtlscope::core {

class PartSource;

class PipelineExecutor {
 public:
  using Observer = Pipeline::Observer;
  /// Builds one observer per shard (analyzer states stay thread-local).
  using ObserverFactory = std::function<Observer(std::size_t shard)>;

  /// `threads` = 0 → hardware concurrency. Shard count equals the thread
  /// count; threads == 1 runs everything inline on the caller's thread.
  explicit PipelineExecutor(PipelineConfig config, std::size_t threads = 0);

  /// 0 → std::thread::hardware_concurrency() (≥ 1).
  static std::size_t resolve_threads(std::size_t requested);
  std::size_t shard_count() const { return threads_; }

  /// Per-shard observers: the factory runs once per shard; each returned
  /// observer only ever fires on its own shard's thread.
  void add_observer_factory(ObserverFactory factory);

  /// Attaches one analyzer instance per shard; merge with
  /// std::move(sharded).merged() after run(). `sharded` must outlive the
  /// run and have size() == shard_count().
  template <typename A>
    requires ConnectionAnalyzer<A>
  void attach(Sharded<A>& sharded) {
    add_observer_factory([&sharded](std::size_t shard) {
      return [analyzer = &sharded.shard(shard)](
                 const EnrichedConnection& conn) { analyzer->observe(conn); };
    });
  }

  /// Runs the five phases over an in-memory dataset and returns the merged,
  /// finalized pipeline.
  Pipeline run(const zeek::Dataset& dataset);
  /// Same over rows the caller owns: `x509` points at rows that outlive
  /// the call, in phase-A stream order (first fuid wins).
  Pipeline run(const std::vector<zeek::SslRecord>& ssl,
               std::vector<const zeek::X509Record*> x509);

  /// In-memory log-text entry: wraps both strings in MemorySources and
  /// runs the TSV engine over them (zero extra copies of the text).
  /// Returns nullopt (with `error` filled) on a parse failure. With
  /// `options.errors` in skip mode, malformed rows are quarantined into
  /// `ledger` (when non-null) instead of failing the run.
  std::optional<Pipeline> run_logs(const std::string& ssl_text,
                                   const std::string& x509_text,
                                   zeek::LogParseError* error = nullptr,
                                   const ingest::IngestOptions& options = {},
                                   ErrorLedger* ledger = nullptr);

  /// Streaming entry: mmaps (or buffered-reads) both log files and runs
  /// the phases without ever materializing a file in memory. "-" reads
  /// stdin (spooled to disk). Output is byte-identical to run_logs() on
  /// the same bytes for every thread count and chunk size.
  std::optional<Pipeline> run_log_files(
      const std::string& ssl_path, const std::string& x509_path,
      ingest::IngestError* error = nullptr,
      const ingest::IngestOptions& options = {},
      ErrorLedger* ledger = nullptr);

  /// Same engine over already-opened byte sources (tests, custom inputs).
  /// `ledger` (optional) receives quarantined records, per-phase counts,
  /// and I/O degradation events; it is finalized before returning.
  std::optional<Pipeline> run_sources(const ingest::Source& ssl,
                                      const ingest::Source& x509,
                                      ingest::IngestError* error = nullptr,
                                      const ingest::IngestOptions& options = {},
                                      ErrorLedger* ledger = nullptr);

  /// Compact-container entry (DESIGN §14, §15): runs the phases over the
  /// container's blocks — byte-identical to a TSV run over the logs the
  /// container was converted from, for any thread count. The
  /// conversion-time ledger stored in the container is restored: abort
  /// mode fails on the first quarantined row (as the TSV run would);
  /// skip mode re-checks the error budget and hands the ledger to
  /// `ledger`.
  std::optional<Pipeline> run_container(
      const colfmt::ContainerReader& reader,
      ingest::IngestError* error = nullptr,
      const ingest::IngestOptions& options = {}, ErrorLedger* ledger = nullptr);

  const PipelineConfig& config() const;

  /// Cache effectiveness and scan choice of the most recent completed
  /// run — the JSON perf envelope's `enrich` block. `facts_*` count the
  /// Enricher's DER-keyed certificate memo over the executor's lifetime
  /// (the Enricher is built on the first run and kept; a batch run makes
  /// one pass per executor, so there they describe that pass);
  /// `enrich_*` sum the per-shard host/address memos (EnrichCache) of the
  /// most recent run after the shard merge.
  struct RunStats {
    const char* scan = "rows";  ///< "columnar" for container inputs
    std::uint64_t facts_hits = 0;
    std::uint64_t facts_misses = 0;
    std::uint64_t facts_unique = 0;
    std::uint64_t enrich_hits = 0;
    std::uint64_t enrich_misses = 0;
    std::uint64_t enrich_unique = 0;
  };
  const RunStats& last_run_stats() const { return stats_; }

  /// Fold-to-state entries (mtlscope map / DESIGN §12): run the phases
  /// with every standard analyzer attached and return the complete
  /// serializable shard state — merged finalized pipeline, the eight
  /// analyzer states, and the ledger. The caller fills `meta`. The
  /// executor must not have caller-attached observers for these entries
  /// (their state would be silently dropped).
  ShardState fold(const zeek::Dataset& dataset);
  ShardState fold(const std::vector<zeek::SslRecord>& ssl,
                  std::vector<const zeek::X509Record*> x509);
  std::optional<ShardState> fold_log_files(
      const std::string& ssl_path, const std::string& x509_path,
      ingest::IngestError* error = nullptr,
      const ingest::IngestOptions& options = {});
  std::optional<ShardState> fold_container(
      const colfmt::ContainerReader& reader,
      ingest::IngestError* error = nullptr,
      const ingest::IngestOptions& options = {});

 private:
  /// K shard pipelines with the per-shard observers wired.
  std::vector<Pipeline> make_shards(const Pipeline::Prepared& prepared);

  /// The one A–E engine (see the file comment).
  std::optional<Pipeline> run_parts(PartSource& parts,
                                    ingest::IngestError* error);

  /// The fold entries' shared body: attaches the standard analyzers,
  /// runs `entry(ledger)`, and moves the pipeline and analyzers out.
  std::optional<ShardState> fold_entry(
      const std::function<std::optional<Pipeline>(ErrorLedger*)>& entry);

  PipelineConfig config_;
  std::size_t threads_;
  std::vector<ObserverFactory> factories_;
  RunStats stats_;
  /// Built by the first run, then shared by every later one: each
  /// distinct certificate is parsed and classified once per executor.
  /// Registry, upgrades, shards and analyzers stay per run.
  std::shared_ptr<const Enricher> enricher_;
};

}  // namespace mtlscope::core
