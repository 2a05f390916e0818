#include "mtlscope/core/executor.hpp"

#include <algorithm>
#include <exception>
#include <map>
#include <span>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <utility>

#include "mtlscope/colfmt/container.hpp"
#include "mtlscope/colfmt/scan.hpp"
#include "mtlscope/core/chain_upgrade.hpp"
#include "mtlscope/core/enrich.hpp"
#include "mtlscope/util/parallel.hpp"
#include "mtlscope/zeek/parse_plan.hpp"

namespace mtlscope::core {

/// What one part's scan reports besides its rows. Only TSV parts fill
/// it: a strict-mode parse failure, or skip-mode row counts and (on the
/// authoritative passes, A and B) each quarantined row.
struct PartLog {
  bool quarantine = false;
  std::optional<ingest::IngestError> error;
  std::vector<zeek::RowIssue> issues;
  zeek::TolerantStats stats;
};

/// The engine's one input seam: the x509 and ssl streams as
/// stream-ordered parts, each scannable into rows — a part's x509 rows
/// in one batch, its ssl rows one at a time. Scans are const and run
/// concurrently; the hooks run on the caller's thread in stream order.
class PartSource {
 public:
  using X509Sink =
      std::function<void(std::span<const zeek::X509Record* const>)>;
  using SslSink = std::function<void(const zeek::SslRecord&)>;

  virtual std::size_t x509_parts() const = 0;
  virtual std::size_t ssl_parts() const = 0;
  /// Feed one part's rows to `sink` in stream order; false, with
  /// `log.error` set, when the part does not parse.
  virtual bool scan_x509(std::size_t part, PartLog& log,
                         const X509Sink& sink) const = 0;
  virtual bool scan_ssl(std::size_t part, const zeek::SslColumns& columns,
                        PartLog& log, const SslSink& sink) const = 0;
  /// Phase B: one part's accepted rows into `resolver`, in stream order.
  /// By default the rows come from scan_ssl under the chains manifest.
  virtual bool scan_chains(std::size_t part, PartLog& log,
                           ChainResolver& resolver) const {
    return scan_ssl(part, zeek::SslColumns::chains(), log,
                    [&resolver](const zeek::SslRecord& row) {
                      resolver.add(row);
                    });
  }
  /// The error reported for an exception out of a part's scan.
  virtual ingest::IngestError failure(bool x509, std::size_t part,
                                      const char* what) const = 0;
  /// Once per part (phases A, B) or per shard (C, D), in stream order.
  virtual void account(LedgerPhase /*phase*/, PartLog& /*log*/) {}
  /// After phase A (kRegistry) and B (kUpgrades); may fail the run.
  virtual void end_stream(LedgerPhase /*phase*/,
                          std::optional<ingest::IngestError>& /*failure*/) {}

 protected:
  ~PartSource() = default;  // never deleted through the seam
};

namespace {

using util::parallel_ranges;

/// Rows per in-memory part: one default container block.
constexpr std::size_t kRowsPerPart = 65536;

const CertFacts* find_facts(const Pipeline::CertMap& certs,
                            const colfmt::StrVec& fuids) {
  if (fuids.empty()) return nullptr;
  const auto it = certs.find(fuids.front());
  return it == certs.end() ? nullptr : &it->second;
}

/// Phase C candidate collection: issuer DN → distinct CT-mismatching SLDs.
/// Byte-ordered on interned keys, so merge folds iterate identically to
/// the old string-keyed map.
using CandidateMap =
    std::map<colfmt::Str, Pipeline::StrSet, colfmt::StrLess>;

void note_interception_candidate(const PipelineConfig& config,
                                 const Enricher& enricher,
                                 const Pipeline::CertMap& base,
                                 const zeek::SslRecord& record,
                                 CandidateMap& candidates) {
  if (!record.established) return;
  const CertFacts* server_leaf = find_facts(base, record.cert_chain_fuids);
  if (server_leaf == nullptr ||
      server_leaf->issuer_class != trust::IssuerClass::kPrivate) {
    return;
  }
  const CertFacts* client_leaf =
      find_facts(base, record.client_cert_chain_fuids);
  const EnrichedConnection conn =
      enricher.enrich(record, server_leaf, client_leaf);
  if (conn.sld.empty() || !config.ct->has_domain(conn.sld)) return;
  const auto* issuers = config.ct->issuers_for(conn.sld);
  if (issuers != nullptr &&
      !issuers->contains(server_leaf->issuer_dn.view())) {
    candidates[server_leaf->issuer_dn].insert(conn.sld);
  }
}

/// Runs `scan()` for one part, turning an exception into the part's
/// error rather than letting it cross a worker thread.
template <typename Scan>
bool guarded(const PartSource& parts, bool x509, std::size_t part,
             PartLog& log, const Scan& scan) {
  try {
    return scan();
  } catch (const std::exception& e) {
    log.error = parts.failure(x509, part, e.what());
    return false;
  }
}

/// Phases A and B: windows of k parts map in parallel, one part per
/// thread (`map(part, log, out)` into a cleared container), then fold in
/// part order on the caller's thread, so at most k parts' results are
/// resident. Stops at the first failed part in stream order and returns
/// its error.
template <typename Out, typename Map, typename Fold>
std::optional<ingest::IngestError> fold_windows(std::size_t parts,
                                                std::size_t k, const Map& map,
                                                const Fold& fold) {
  const std::size_t width = std::max<std::size_t>(1, std::min(parts, k));
  std::vector<Out> outs(width);
  std::vector<PartLog> logs(width);
  for (std::size_t first = 0; first < parts; first += width) {
    const std::size_t n = std::min(width, parts - first);
    parallel_ranges(n, n, [&](std::size_t i, std::size_t, std::size_t) {
      outs[i].clear();
      logs[i] = PartLog{};
      logs[i].quarantine = true;
      map(first + i, logs[i], outs[i]);
    });
    for (std::size_t i = 0; i < n; ++i) {
      if (logs[i].error) return std::move(logs[i].error);
      fold(outs[i], logs[i]);
    }
  }
  return std::nullopt;
}

/// Phases C and D: shard s scans ssl parts [P·s/k, P·(s+1)/k) in stream
/// order with the pipeline manifest, feeding `visit(s, row)`. Each
/// shard's log is accounted under `phase` in shard order; returns the
/// first failed part's error in stream order.
template <typename Visit>
std::optional<ingest::IngestError> shard_pass(PartSource& parts,
                                              std::size_t k, LedgerPhase phase,
                                              const Visit& visit) {
  std::vector<PartLog> logs(k);
  parallel_ranges(
      parts.ssl_parts(), k,
      [&](std::size_t shard, std::size_t begin, std::size_t end) {
        PartLog& log = logs[shard];
        const PartSource::SslSink sink = [&](const zeek::SslRecord& row) {
          visit(shard, row);
        };
        for (std::size_t part = begin; part < end; ++part) {
          const bool ok = guarded(parts, false, part, log, [&] {
            return parts.scan_ssl(part, zeek::SslColumns::pipeline(), log,
                                  sink);
          });
          if (!ok) return;
        }
      });
  for (auto& log : logs) parts.account(phase, log);
  for (auto& log : logs) {
    if (log.error) return std::move(log.error);
  }
  return std::nullopt;
}

/// Part `part` of `parts` equal row ranges over `rows` rows.
std::pair<std::size_t, std::size_t> row_range(std::size_t rows,
                                              std::size_t part,
                                              std::size_t parts) {
  return {rows * part / parts, rows * (part + 1) / parts};
}

/// A multiple of k parts of at most kRowsPerPart rows (once there are
/// enough rows), so the shard-contiguous split of phases C and D gives
/// each shard the same k balanced row ranges a plain split would.
std::size_t row_parts(std::size_t rows, std::size_t k) {
  const std::size_t parts = (rows + kRowsPerPart - 1) / kRowsPerPart;
  return std::max<std::size_t>(1, (parts + k - 1) / k) * k;
}

/// Pointers to `rows` (a vector's elements or a map's values) in order.
template <typename Rows>
std::vector<const zeek::X509Record*> row_pointers(const Rows& rows) {
  std::vector<const zeek::X509Record*> out;
  out.reserve(rows.size());
  for (const auto& row : rows) {
    if constexpr (std::is_same_v<std::decay_t<decltype(row)>,
                                 zeek::X509Record>) {
      out.push_back(&row);
    } else {
      out.push_back(&row.second);
    }
  }
  return out;
}

/// x509 rows already in memory, as row-range parts. Phase A is their
/// only reader, so its end drops the row index and any rows owned here.
class X509RowParts : public PartSource {
 public:
  X509RowParts(std::vector<const zeek::X509Record*> rows, std::size_t k)
      : rows_(std::move(rows)), parts_(row_parts(rows_.size(), k)) {}

  std::size_t x509_parts() const override { return parts_; }
  bool scan_x509(std::size_t part, PartLog&,
                 const X509Sink& sink) const override {
    const auto [begin, end] = row_range(rows_.size(), part, parts_);
    sink({rows_.data() + begin, end - begin});
    return true;
  }
  void end_stream(LedgerPhase phase,
                  std::optional<ingest::IngestError>&) override {
    if (phase != LedgerPhase::kRegistry) return;
    rows_ = {};
    owned_ = {};
    parts_ = 0;
  }

 protected:
  /// Rows decoded for phase A, block by block; `rows_` points into them.
  std::vector<std::vector<zeek::X509Record>> owned_;

 private:
  std::vector<const zeek::X509Record*> rows_;
  std::size_t parts_;
};

/// An in-memory dataset: ssl rows in row-range parts too.
class MemoryParts final : public X509RowParts {
 public:
  MemoryParts(const std::vector<zeek::SslRecord>& ssl,
              std::vector<const zeek::X509Record*> x509, std::size_t k)
      : X509RowParts(std::move(x509), k),
        ssl_(ssl),
        parts_(row_parts(ssl.size(), k)) {}

  std::size_t ssl_parts() const override { return parts_; }
  bool scan_ssl(std::size_t part, const zeek::SslColumns&, PartLog&,
                const SslSink& sink) const override {
    const auto [begin, end] = row_range(ssl_.size(), part, parts_);
    for (std::size_t i = begin; i < end; ++i) sink(ssl_[i]);
    return true;
  }
  ingest::IngestError failure(bool, std::size_t,
                              const char* what) const override {
    return {"<memory>", 0, what};
  }

 private:
  const std::vector<zeek::SslRecord>& ssl_;
  std::size_t parts_;
};

ingest::IngestError container_error(const colfmt::ContainerReader& reader,
                                    const char* what) {
  return {reader.path(), 0,
          std::string("container block decode failed: ") + what};
}

/// A container (DESIGN §15): x509 blocks decoded up front and split into
/// row ranges; ssl parts are blocks, scanned column-direct through
/// SslBlockScan into one reused record.
class ContainerParts final : public X509RowParts {
 public:
  ContainerParts(const colfmt::ContainerReader& reader,
                 std::vector<std::vector<zeek::X509Record>>&& x509,
                 std::size_t k)
      : X509RowParts(pointers(x509), k), reader_(reader) {
    owned_ = std::move(x509);
  }

  std::size_t ssl_parts() const override {
    return reader_.ssl_blocks().size();
  }
  bool scan_ssl(std::size_t part, const zeek::SslColumns& columns, PartLog&,
                const SslSink& sink) const override {
    auto scan = reader_.scan_ssl_block(reader_.ssl_blocks()[part], columns);
    zeek::SslRecord row;
    while (!scan.done()) {
      scan.next(row);
      sink(row);
    }
    return true;
  }
  ingest::IngestError failure(bool, std::size_t,
                              const char* what) const override {
    return container_error(reader_, what);
  }

 private:
  static std::vector<const zeek::X509Record*> pointers(
      const std::vector<std::vector<zeek::X509Record>>& blocks) {
    std::vector<const zeek::X509Record*> out;
    for (const auto& block : blocks) {
      for (const auto& row : block) out.push_back(&row);
    }
    return out;
  }

  const colfmt::ContainerReader& reader_;
};

/// Decodes the container's x509 blocks in parallel (each carries its own
/// dictionary). The smallest-index failing block's error wins.
std::optional<std::vector<std::vector<zeek::X509Record>>> decode_x509(
    const colfmt::ContainerReader& reader, std::size_t k,
    ingest::IngestError* error) {
  const auto& blocks = reader.x509_blocks();
  std::vector<std::vector<zeek::X509Record>> decoded(blocks.size());
  std::vector<std::optional<std::string>> failures(blocks.size());
  parallel_ranges(blocks.size(), k,
                  [&](std::size_t, std::size_t begin, std::size_t end) {
                    for (std::size_t i = begin; i < end; ++i) {
                      try {
                        decoded[i] = reader.decode_x509_block(blocks[i]);
                      } catch (const std::exception& e) {
                        failures[i] = e.what();
                      }
                    }
                  });
  for (const auto& failure : failures) {
    if (failure) {
      if (error != nullptr) *error = container_error(reader, failure->c_str());
      return std::nullopt;
    }
  }
  return decoded;
}

std::string describe_parse_error(const zeek::LogParseError& error) {
  if (error.line == 0) return error.message;
  return error.message + " (line " + std::to_string(error.line) +
         " of the chunk at this offset, header included)";
}

/// A Zeek TSV log pair on byte sources. Parts are the record-aligned
/// byte ranges RecordChunker cuts, so error offsets and chunk-relative
/// line numbers match a chunked parse. The hooks keep the skip-mode
/// ledger: quarantine with absolute line numbers on the authoritative
/// passes, tolerated-row counts on the re-parses, truncation notes and
/// budget checks at the end of each stream.
class TsvParts final : public PartSource {
 public:
  TsvParts(const ingest::Source& ssl, const ingest::Source& x509,
           const ingest::IngestOptions& options, ErrorLedger& ledger)
      : x509_(x509, options.chunk_bytes),
        ssl_(ssl, options.chunk_bytes),
        x509_plan_(zeek::X509Plan::compile(
            zeek::ColumnPlan::from_header(x509_.header))),
        ssl_plan_(zeek::SslPlan::compile(
            zeek::ColumnPlan::from_header(ssl_.header))),
        options_(options),
        ledger_(ledger) {}

  std::size_t x509_parts() const override { return x509_.parts.size(); }
  std::size_t ssl_parts() const override { return ssl_.parts.size(); }

  bool scan_x509(std::size_t part, PartLog& log,
                 const X509Sink& sink) const override {
    std::vector<zeek::X509Record> rows;
    const bool ok = scan(
        x509_, part, log,
        [&](auto body, auto* error, auto lines) {
          return zeek::parse_x509_records(body, x509_plan_, rows, error,
                                          lines);
        },
        [&](auto body, auto* issues, auto lines, auto offset) {
          return zeek::parse_x509_records_tolerant(body, x509_plan_, rows,
                                                   issues, lines, offset);
        });
    if (ok) sink(row_pointers(rows));
    return ok;
  }
  bool scan_ssl(std::size_t part, const zeek::SslColumns& columns,
                PartLog& log, const SslSink& sink) const override {
    const zeek::SslPlan plan = ssl_plan_.projected(columns);
    std::vector<zeek::SslRecord> rows;
    const bool ok = scan(
        ssl_, part, log,
        [&](auto body, auto* error, auto lines) {
          return zeek::parse_ssl_records(body, plan, rows, error, lines);
        },
        [&](auto body, auto* issues, auto lines, auto offset) {
          return zeek::parse_ssl_records_tolerant(body, plan, rows, issues,
                                                  lines, offset);
        });
    if (ok) {
      for (const auto& row : rows) sink(row);
    }
    return ok;
  }
  /// Phase B straight from the bytes: the same walk and row checks as
  /// scan_ssl, but each row's chain fields resolve as raw views while
  /// the part is fetched. No record is built and nothing is interned.
  bool scan_chains(std::size_t part, PartLog& log,
                   ChainResolver& resolver) const override {
    const zeek::SslChainVisitor visit = [&resolver](
                                            const zeek::SslChainRow& row) {
      resolver.add(row);
    };
    return scan(
        ssl_, part, log,
        [&](auto body, auto* error, auto lines) {
          return zeek::scan_ssl_chains(body, ssl_plan_, visit, error, lines);
        },
        [&](auto body, auto* issues, auto lines, auto offset) {
          return zeek::scan_ssl_chains_tolerant(body, ssl_plan_, visit,
                                                issues, lines, offset);
        });
  }
  ingest::IngestError failure(bool x509, std::size_t part,
                              const char* what) const override {
    const Stream& stream = x509 ? x509_ : ssl_;
    return {stream.source.name(), stream.parts[part].first,
            std::string("exception while scanning rows: ") + what};
  }

  void account(LedgerPhase phase, PartLog& log) override {
    if (!options_.errors.skip()) return;
    if (phase != LedgerPhase::kRegistry && phase != LedgerPhase::kUpgrades) {
      ledger_.count_phase(phase, log.stats.rows_bad);
      return;
    }
    const bool x509 = phase == LedgerPhase::kRegistry;
    Stream& stream = x509 ? x509_ : ssl_;
    const InputRole role = x509 ? InputRole::kX509 : InputRole::kSsl;
    ledger_.count_rows_ok(role, log.stats.rows_ok);
    for (auto& issue : log.issues) {
      ledger_.quarantine(
          phase, {role, issue.byte_offset,
                  issue.line == 0 ? 0 : issue.line + stream.lines_before,
                  issue.raw_length, std::move(issue.reason),
                  std::move(issue.digest)});
    }
    stream.lines_before += log.stats.lines;
  }

  void end_stream(LedgerPhase phase,
                  std::optional<ingest::IngestError>& failure) override {
    const bool x509 = phase == LedgerPhase::kRegistry;
    const ingest::Source& source = (x509 ? x509_ : ssl_).source;
    if (source.truncation_detected()) {
      ledger_.note_io(x509 ? InputRole::kX509 : InputRole::kSsl,
                      "file truncated while streaming; complete records "
                      "salvaged up to byte " +
                          std::to_string(source.truncated_size()));
    }
    if (!failure && options_.errors.skip()) {
      if (auto violation = ledger_.budget_violation(options_.errors)) {
        failure = ingest::IngestError{source.name(), 0, *violation};
      }
    }
  }

 private:
  struct Stream {
    Stream(const ingest::Source& source, std::size_t chunk_bytes)
        : source(source) {
      ingest::LogLayout layout = ingest::detect_log_layout(source);
      header = std::move(layout.header);
      header_lines = static_cast<std::size_t>(
          std::count(header.begin(), header.end(), '\n'));
      ingest::RecordChunker chunker(source, chunk_bytes, layout.body_begin,
                                    source.size());
      std::size_t begin = 0;
      std::size_t end = 0;
      while (chunker.next_range(begin, end)) {
        parts.emplace_back(begin, end);
        // The boundary probe faulted in pages around the cut: drop them
        // as we go, or cutting would map the whole file.
        source.release(begin, end - begin);
      }
    }

    const ingest::Source& source;
    std::string header;
    std::size_t header_lines = 0;
    std::vector<std::pair<std::size_t, std::size_t>> parts;
    std::size_t lines_before = 0;  // skip mode: lines folded so far
  };

  /// Fetches part `part` of `stream` and walks it with one zeek batch
  /// walker: `tolerant(body, issues, header_lines, base_offset)` in skip
  /// mode, else `strict(body, error, header_lines)`. False, with
  /// `log.error` set, when the strict walk fails. The walkers' outputs
  /// hold interned copies or resolved entries, never views of the body,
  /// so the part's pages are released on the way out.
  template <typename Strict, typename Tolerant>
  bool scan(const Stream& stream, std::size_t part, PartLog& log,
            const Strict& strict, const Tolerant& tolerant) const {
    const auto [begin, end] = stream.parts[part];
    std::string scratch;
    const std::string_view body =
        begin == end ? std::string_view{}
                     : stream.source.fetch(begin, end - begin, scratch);
    if (options_.errors.skip()) {
      auto* issues = log.quarantine ? &log.issues : nullptr;
      const zeek::TolerantStats stats =
          tolerant(body, issues, stream.header_lines, begin);
      log.stats.rows_ok += stats.rows_ok;
      log.stats.rows_bad += stats.rows_bad;
      log.stats.lines += stats.lines;
    } else {
      zeek::LogParseError error;
      if (!strict(body, &error, stream.header_lines)) {
        log.error = ingest::IngestError{stream.source.name(), begin,
                                        describe_parse_error(error)};
        return false;
      }
    }
    stream.source.release(begin, end - begin);
    return true;
  }

  Stream x509_;
  Stream ssl_;
  zeek::X509Plan x509_plan_;
  zeek::SslPlan ssl_plan_;
  const ingest::IngestOptions& options_;
  ErrorLedger& ledger_;
};

}  // namespace

PipelineExecutor::PipelineExecutor(PipelineConfig config, std::size_t threads)
    : config_(std::move(config)), threads_(resolve_threads(threads)) {}

std::size_t PipelineExecutor::resolve_threads(std::size_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

void PipelineExecutor::add_observer_factory(ObserverFactory factory) {
  factories_.push_back(std::move(factory));
}

const PipelineConfig& PipelineExecutor::config() const { return config_; }

std::optional<Pipeline> PipelineExecutor::run_parts(
    PartSource& parts, ingest::IngestError* error) {
  // Not in the constructor: executors that never run (reduce harnesses)
  // must not pay for the trust store and categorizer.
  if (!enricher_) enricher_ = std::make_shared<const Enricher>(config_);
  const std::shared_ptr<const Enricher>& enricher = enricher_;
  const std::size_t k = threads_;

  // --- Phase A: certificate registry. Each part's facts build into a
  // part-local map in parallel windows (first fuid in the part wins),
  // and the parts splice into the registry in stream order: merge()
  // moves only the nodes whose fuid the registry lacks, so the first
  // fuid in the stream wins. ---
  auto base = std::make_shared<Pipeline::CertMap>();
  auto failure = fold_windows<Pipeline::CertMap>(
      parts.x509_parts(), k,
      [&](std::size_t part, PartLog& log, Pipeline::CertMap& out) {
        return guarded(parts, true, part, log, [&] {
          return parts.scan_x509(
              part, log, [&](std::span<const zeek::X509Record* const> rows) {
                out.reserve(rows.size());
                for (const auto* row : rows) {
                  CertFacts facts = enricher->make_facts(*row);
                  const colfmt::Str fuid = facts.fuid;
                  out.try_emplace(fuid, std::move(facts));
                }
              });
        });
      },
      [&](Pipeline::CertMap& facts, PartLog& log) {
        base->merge(facts);
        parts.account(LedgerPhase::kRegistry, log);
      });
  parts.end_stream(LedgerPhase::kRegistry, failure);

  // --- Phase B: chain-level public upgrades (§3.2.1) over the chains
  // manifest. Upgrading is monotonic (private → public, never back), so
  // one in-order pass reaches the fixpoint. ---
  if (!failure) {
    failure = fold_windows<ResolvedChains>(
        parts.ssl_parts(), k,
        [&](std::size_t part, PartLog& log, ResolvedChains& out) {
          return guarded(parts, false, part, log, [&] {
            ChainResolver resolver(*base, out);
            return parts.scan_chains(part, log, resolver);
          });
        },
        [&](ResolvedChains& resolved, PartLog& log) {
          fold_upgrades(resolved);
          parts.account(LedgerPhase::kUpgrades, log);
        });
  }
  parts.end_stream(LedgerPhase::kUpgrades, failure);

  // --- Phase C: interception pre-pass (when CT is configured). Shard-
  // local candidate maps merge by set union; confirmation compares the
  // union against the threshold, so the confirmed set is exactly the set
  // a serial stream (in any order) would eventually confirm. ---
  auto confirmed = std::make_shared<Pipeline::StrSet>();
  if (!failure && config_.ct != nullptr) {
    std::vector<CandidateMap> local(k);
    failure = shard_pass(parts, k, LedgerPhase::kInterception,
                         [&](std::size_t shard, const zeek::SslRecord& row) {
                           note_interception_candidate(config_, *enricher,
                                                       *base, row,
                                                       local[shard]);
                         });
    CandidateMap merged;
    for (auto& candidates : local) {
      for (auto& [issuer, domains] : candidates) {
        merged[issuer].insert(domains.begin(), domains.end());
      }
    }
    for (const auto& [issuer, domains] : merged) {
      if (domains.size() >= config_.interception_domain_threshold) {
        confirmed->insert(issuer);
      }
    }
  }

  // --- Phase D: one pipeline per shard over its
  // contiguous range of parts. Any contiguous partition merges to the
  // same bytes, so part boundaries never show in the output. ---
  if (!failure) {
    const Pipeline::Prepared prepared{enricher, base, confirmed};
    std::vector<Pipeline> shards = make_shards(prepared);
    failure = shard_pass(parts, k, LedgerPhase::kShardRun,
                         [&](std::size_t shard, const zeek::SslRecord& row) {
                           shards[shard].add_connection(row);
                         });

    // --- Phase E: deterministic merge in shard order. ---
    if (!failure) {
      Pipeline merged;
      for (auto& shard : shards) merged.merge(std::move(shard));
      merged.set_interception_issuers(*confirmed);
      merged.backfill_certificates(*base);
      merged.finalize();
      const auto facts = enricher->facts_cache_stats();
      const EnrichCache& cache = merged.enrich_cache();
      stats_ = RunStats{"rows",      facts.hits,   facts.misses, facts.unique,
                        cache.hits,  cache.misses, cache.unique()};
      return merged;
    }
  }
  if (error != nullptr) *error = std::move(*failure);
  return std::nullopt;
}

std::vector<Pipeline> PipelineExecutor::make_shards(
    const Pipeline::Prepared& prepared) {
  std::vector<Pipeline> shards;
  shards.reserve(threads_);
  for (std::size_t t = 0; t < threads_; ++t) {
    shards.emplace_back(prepared);
    for (const auto& factory : factories_) {
      shards[t].add_observer(factory(t));
    }
  }
  return shards;
}

Pipeline PipelineExecutor::run(const zeek::Dataset& dataset) {
  return run(dataset.ssl(), row_pointers(dataset.x509()));
}

Pipeline PipelineExecutor::run(const std::vector<zeek::SslRecord>& ssl,
                               std::vector<const zeek::X509Record*> x509) {
  MemoryParts parts(ssl, std::move(x509), threads_);
  ingest::IngestError error;
  auto result = run_parts(parts, &error);
  if (!result) throw std::runtime_error(error.to_string());
  return std::move(*result);
}

std::optional<Pipeline> PipelineExecutor::run_sources(
    const ingest::Source& ssl, const ingest::Source& x509,
    ingest::IngestError* error, const ingest::IngestOptions& options,
    ErrorLedger* ledger) {
  // Skip mode always accounts through a ledger: budget enforcement needs
  // the counts even when the caller did not ask for the samples.
  ErrorLedger local_ledger;
  ErrorLedger& led = ledger != nullptr ? *ledger : local_ledger;
  TsvParts parts(ssl, x509, options, led);
  auto result = run_parts(parts, error);
  led.finalize();
  return result;
}

std::optional<Pipeline> PipelineExecutor::run_log_files(
    const std::string& ssl_path, const std::string& x509_path,
    ingest::IngestError* error, const ingest::IngestOptions& options,
    ErrorLedger* ledger) {
  ingest::SourceOptions source_options;
  source_options.force_buffered = options.force_buffered;
  ingest::IngestError open_error;
  const auto ssl = ingest::open_source(ssl_path, &open_error, source_options);
  if (ssl == nullptr) {
    if (error != nullptr) *error = open_error;
    return std::nullopt;
  }
  const auto x509 =
      ingest::open_source(x509_path, &open_error, source_options);
  if (x509 == nullptr) {
    if (error != nullptr) *error = open_error;
    return std::nullopt;
  }
  return run_sources(*ssl, *x509, error, options, ledger);
}

std::optional<Pipeline> PipelineExecutor::run_container(
    const colfmt::ContainerReader& reader, ingest::IngestError* error,
    const ingest::IngestOptions& options, ErrorLedger* ledger) {
  // Policy gate on the conversion-time ledger, mirroring what a TSV run
  // over the original logs would do with the same rows.
  ErrorLedger restored = reader.ledger();
  if (!restored.pristine()) {
    if (!options.errors.skip()) {
      // Abort mode fails on the first quarantined row of the
      // first-parsed input (x509 — phase A — before ssl), with the
      // row's original TSV coordinates.
      const QuarantinedRecord* first = nullptr;
      for (const auto& entry : restored.entries()) {
        if (entry.input == InputRole::kX509) {
          first = &entry;
          break;
        }
      }
      if (first == nullptr && !restored.entries().empty()) {
        first = &restored.entries().front();
      }
      if (error != nullptr) {
        if (first != nullptr) {
          error->file = first->input == InputRole::kX509
                            ? reader.meta().x509_path
                            : reader.meta().ssl_path;
          error->byte_offset = first->byte_offset;
          error->reason = first->reason;
        } else {
          error->file = reader.path();
          error->reason = "container records I/O degradation events";
        }
      }
      return std::nullopt;
    }
    if (const auto violation = restored.budget_violation(options.errors)) {
      if (error != nullptr) {
        error->file = reader.path();
        error->reason = *violation;
      }
      return std::nullopt;
    }
  }

  auto x509 = decode_x509(reader, threads_, error);
  if (!x509) return std::nullopt;
  ContainerParts parts(reader, std::move(*x509), threads_);
  auto result = run_parts(parts, error);
  if (result) stats_.scan = "columnar";
  if (result && ledger != nullptr) {
    // Hand out exactly the ledger a TSV run over the original logs would
    // have produced (shard state serializes every field, so map states
    // from compact and TSV inputs must match byte-for-byte). Abort mode
    // never accounts — the TSV parts only count under skip — so a clean
    // abort run carries an empty ledger. Skip mode carries the
    // conversion counts (phases A/B: rows_ok + quarantine) plus the
    // re-parse tolerations phases C/D would have counted over the same
    // bad rows.
    ErrorLedger out;
    if (options.errors.skip()) {
      const std::uint64_t ssl_bad = restored.quarantined(InputRole::kSsl);
      out = std::move(restored);
      if (config_.ct != nullptr) {
        out.count_phase(LedgerPhase::kInterception, ssl_bad);
      }
      out.count_phase(LedgerPhase::kShardRun, ssl_bad);
    }
    out.finalize();
    *ledger = std::move(out);
  }
  return result;
}

std::optional<Pipeline> PipelineExecutor::run_logs(
    const std::string& ssl_text, const std::string& x509_text,
    zeek::LogParseError* error, const ingest::IngestOptions& options,
    ErrorLedger* ledger) {
  const ingest::MemorySource ssl(ssl_text, "<ssl log text>");
  const ingest::MemorySource x509(x509_text, "<x509 log text>");
  ingest::IngestError ingest_error;
  auto result = run_sources(ssl, x509, &ingest_error, options, ledger);
  if (!result && error != nullptr) {
    error->line = 0;
    error->message = ingest_error.to_string();
  }
  return result;
}

}  // namespace mtlscope::core
