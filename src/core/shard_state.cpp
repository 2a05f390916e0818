// Shard-state files (DESIGN §12): the section table and the sealed-file
// framing (the shared codec in state_io.cpp). Each section's payload is
// one field list (core/field_list.hpp): the meta, the pipeline, one per
// analyzer in AnalyzerSet's list, and the ledger.
#include "mtlscope/core/shard_state.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "mtlscope/core/executor.hpp"
#include "mtlscope/core/state_io.hpp"
#include "mtlscope/crypto/encoding.hpp"
#include "mtlscope/crypto/sha256.hpp"
#include "mtlscope/ingest/durable_io.hpp"

namespace mtlscope::core {

namespace {

/// The sealed format, its sections named by id (1-based) in file order:
/// meta, pipeline, the analyzers in AnalyzerSet's list, ledger. The
/// table is part of the format: renumbering or reordering requires a
/// kStateFormatVersion bump.
const SealedFormat& state_format() {
  static const std::vector<const char*> sections = [] {
    std::vector<const char*> names = {"meta", "pipeline"};
    auto add = [&names](const char* name, auto, auto) {
      names.push_back(name);
    };
    AnalyzerSet::fields(add);
    names.push_back("ledger");
    return names;
  }();
  static const SealedFormat format{
      .magic = "MTLSSTAT",
      .version = kStateFormatVersion,
      .sections = sections,
      .noun = "state file",
      .kind = "state",
      .title = "state file",
      .versioned = "state format",
      .container = "container",
  };
  return format;
}

}  // namespace

std::string describe_meta(const ShardStateMeta& meta) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "mode=%s seed=%llu cert_scale=%g conn_scale=%g",
                meta.file_mode ? "file" : "synthetic",
                static_cast<unsigned long long>(meta.seed), meta.cert_scale,
                meta.conn_scale);
  return buf;
}

bool compatible_meta(const ShardStateMeta& a, const ShardStateMeta& b) {
  return a.file_mode == b.file_mode && a.seed == b.seed &&
         a.cert_scale == b.cert_scale && a.conn_scale == b.conn_scale;
}

void ShardState::merge(ShardState&& other) {
  merge_fields(meta, std::move(other.meta));
  if (other.pipeline) {
    if (pipeline) {
      pipeline->merge(std::move(*other.pipeline));
    } else {
      pipeline = std::move(other.pipeline);
    }
  }
  merge_fields(analyzers, std::move(other.analyzers));
  ledger.merge(std::move(other.ledger));
}

// ---------------------------------------------------------------------------
// Container framing

std::string serialize_shard_state(const ShardState& state) {
  if (!state.pipeline) {
    throw StateError("shard state has no pipeline to serialize");
  }
  std::vector<SectionWriter> writers = {
      [&](StateWriter& p) { write_fields(p, state.meta); },
      [&](StateWriter& p) { write_fields(p, *state.pipeline); },
  };
  auto add = [&](const char*, auto analyzer, auto) {
    writers.push_back([&a = state.analyzers.*analyzer](StateWriter& p) {
      write_fields(p, a);
    });
  };
  AnalyzerSet::fields(add);
  writers.push_back([&](StateWriter& p) { write_fields(p, state.ledger); });
  return write_sealed(state_format(), writers);
}

std::optional<ShardState> parse_shard_state(std::string_view data,
                                            StateFileInfo* info,
                                            std::string* error) {
  ShardState state;
  state.pipeline.emplace();
  std::vector<SectionReader> readers = {
      [&](StateReader& r) { read_fields(r, state.meta, "meta"); },
      [&](StateReader& r) { read_fields(r, *state.pipeline, "pipeline"); },
  };
  auto add = [&](const char* name, auto analyzer, auto) {
    readers.push_back([&a = state.analyzers.*analyzer, name](StateReader& r) {
      read_fields(r, a, name);
    });
  };
  AnalyzerSet::fields(add);
  readers.push_back(
      [&](StateReader& r) { read_fields(r, state.ledger, "ledger"); });
  std::string digest_hex;
  if (!read_sealed(state_format(), data, readers, error,
                   info != nullptr ? &digest_hex : nullptr)) {
    return std::nullopt;
  }
  if (info != nullptr) {
    info->format_version = kStateFormatVersion;
    info->digest_hex = std::move(digest_hex);
    info->bytes = data.size();
  }
  return state;
}

bool save_shard_state(const std::string& path, const ShardState& state,
                      StateFileInfo* info, std::string* error) {
  std::string bytes;
  try {
    bytes = serialize_shard_state(state);
  } catch (const StateError& e) {
    if (error != nullptr) *error = e.what();
    return false;
  }
  // Atomic, durable publication (DESIGN §16): tmp + fsync + rename +
  // parent-directory fsync, so a reduce never opens a torn state file
  // and a completed map survives power loss.
  const auto published = ingest::atomic_publish_file(path, bytes, "state.save");
  if (!published.ok) {
    if (error != nullptr) *error = published.message;
    return false;
  }
  if (info != nullptr) {
    info->format_version = kStateFormatVersion;
    info->digest_hex = crypto::to_hex(crypto::Sha256::hash(std::string_view(
        bytes.data(), bytes.size() - crypto::Sha256::kDigestSize)));
    info->bytes = bytes.size();
  }
  return true;
}

std::optional<ShardState> load_shard_state(const std::string& path,
                                           StateFileInfo* info,
                                           std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string bytes = std::move(buf).str();
  return parse_shard_state(bytes, info, error);
}

// ---------------------------------------------------------------------------
// Executor fold entries

std::optional<ShardState> PipelineExecutor::fold_entry(
    const std::function<std::optional<Pipeline>(ErrorLedger*)>& entry) {
  Sharded<AnalyzerSet> sharded(shard_count());
  attach(sharded);
  ShardState state;
  auto pipeline = entry(&state.ledger);
  factories_.clear();  // they reference the local shards
  if (!pipeline) return std::nullopt;
  state.pipeline = std::move(pipeline);
  state.analyzers = std::move(sharded).merged();
  return state;
}

ShardState PipelineExecutor::fold(const zeek::Dataset& dataset) {
  return *fold_entry(
      [&](ErrorLedger*) { return std::optional<Pipeline>(run(dataset)); });
}

ShardState PipelineExecutor::fold(const std::vector<zeek::SslRecord>& ssl,
                                  std::vector<const zeek::X509Record*> x509) {
  return *fold_entry([&](ErrorLedger*) {
    return std::optional<Pipeline>(run(ssl, std::move(x509)));
  });
}

std::optional<ShardState> PipelineExecutor::fold_log_files(
    const std::string& ssl_path, const std::string& x509_path,
    ingest::IngestError* error, const ingest::IngestOptions& options) {
  return fold_entry([&](ErrorLedger* ledger) {
    return run_log_files(ssl_path, x509_path, error, options, ledger);
  });
}

std::optional<ShardState> PipelineExecutor::fold_container(
    const colfmt::ContainerReader& reader, ingest::IngestError* error,
    const ingest::IngestOptions& options) {
  return fold_entry([&](ErrorLedger* ledger) {
    return run_container(reader, error, options, ledger);
  });
}

}  // namespace mtlscope::core
