#include "mtlscope/experiments/harness.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <vector>

#include "mtlscope/colfmt/container.hpp"

namespace mtlscope::experiments {

namespace {

core::PipelineConfig make_config(const gen::TraceGenerator& generator,
                                 const RunOptions& options) {
  auto config = core::PipelineConfig::campus_defaults();
  // File mode analyzes foreign logs: no synthetic CT database applies.
  if (!options.file_mode()) config.ct = &generator.ct_database();
  return config;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    std::exit(1);
  }
  std::ostringstream out;
  out << in.rdbuf();
  return std::move(out).str();
}

std::uint64_t file_size_or_zero(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return 0;  // run_log_files reports the open failure itself
  const auto pos = in.tellg();
  return pos < 0 ? 0 : static_cast<std::uint64_t>(pos);
}

}  // namespace

Harness::Harness(gen::CampusModel model, const RunOptions& options)
    : generator_(std::move(model)),
      options_(options),
      executor_(make_config(generator_, options_), options_.threads) {}

Harness::Harness(const RunOptions& options, core::ShardState state)
    : generator_(gen::CampusModel{}),
      options_(options),
      executor_(make_config(generator_, options_), options_.threads),
      reduced_(true) {
  if (!state.pipeline) {
    std::fprintf(stderr, "reduce harness: shard state has no pipeline\n");
    std::exit(1);
  }
  pipeline_.emplace(std::move(*state.pipeline));
  analyzers_ = std::move(state.analyzers);
  ledger_ = std::move(state.ledger);
  records_ = static_cast<std::size_t>(pipeline_->totals().connections);
  parse_bytes_ = state.meta.parse_bytes;
}

const core::AnalyzerSet& Harness::analyzers() const {
  if (!reduced_) {
    std::fprintf(stderr,
                 "Harness::analyzers() is only valid in reduce mode; "
                 "attach Sharded analyzers instead\n");
    std::abort();
  }
  return analyzers_;
}

core::Pipeline& Harness::pipeline() {
  if (!pipeline_) {
    std::fprintf(stderr,
                 "Harness::pipeline() called before run(); analyzers must "
                 "be attached via attach()\n");
    std::abort();
  }
  return *pipeline_;
}

void Harness::run() {
  if (reduced_) {
    std::fprintf(stderr, "Harness::run() called on a reduce-mode harness\n");
    std::abort();
  }
  if (options_.file_mode()) {
    run_files();
    return;
  }
  const auto generate_start = std::chrono::steady_clock::now();
  const auto dataset = generator_.generate_dataset(executor_.shard_count());
  records_ = dataset.connection_count();
  const auto start = std::chrono::steady_clock::now();
  generate_seconds_ =
      std::chrono::duration<double>(start - generate_start).count();
  pipeline_.emplace(executor_.run(dataset));
  const auto stop = std::chrono::steady_clock::now();
  wall_seconds_ = std::chrono::duration<double>(stop - start).count();
}

void Harness::run_files() {
  if (options_.compact_input()) {
    std::string open_error;
    const auto reader = colfmt::ContainerReader::open(options_.ssl_log,
                                                      &open_error);
    if (!reader) {
      std::fprintf(stderr, "ingest failed: %s\n", open_error.c_str());
      std::exit(1);
    }
    // Report the TSV pair the container was converted from — labels and
    // parse bytes — so a compact run's doc is byte-identical to the TSV
    // run it mirrors (the registry copies these back from options()).
    options_.ssl_log = reader->meta().ssl_path;
    options_.x509_log = reader->meta().x509_path;
    parse_bytes_ = reader->meta().ssl_bytes + reader->meta().x509_bytes;
    const auto start = std::chrono::steady_clock::now();
    ingest::IngestError error;
    auto result = executor_.run_container(*reader, &error,
                                          options_.ingest_options(), &ledger_);
    if (!result) {
      std::fprintf(stderr, "ingest failed: %s\n", error.to_string().c_str());
      std::exit(1);
    }
    pipeline_ = std::move(result);
    const auto stop = std::chrono::steady_clock::now();
    records_ = static_cast<std::size_t>(pipeline_->totals().connections);
    wall_seconds_ = std::chrono::duration<double>(stop - start).count();
    return;
  }
  const auto start = std::chrono::steady_clock::now();
  if (options_.in_memory) {
    const std::string ssl_text = slurp(options_.ssl_log);
    const std::string x509_text = slurp(options_.x509_log);
    parse_bytes_ = ssl_text.size() + x509_text.size();
    zeek::LogParseError error;
    auto result = executor_.run_logs(ssl_text, x509_text, &error,
                                     options_.ingest_options(), &ledger_);
    if (!result) {
      std::fprintf(stderr, "parse failed: %s\n", error.message.c_str());
      std::exit(1);
    }
    pipeline_ = std::move(result);
  } else {
    parse_bytes_ =
        file_size_or_zero(options_.ssl_log) + file_size_or_zero(options_.x509_log);
    ingest::IngestError error;
    auto result = executor_.run_log_files(options_.ssl_log, options_.x509_log,
                                          &error, options_.ingest_options(),
                                          &ledger_);
    if (!result) {
      std::fprintf(stderr, "ingest failed: %s\n", error.to_string().c_str());
      std::exit(1);
    }
    pipeline_ = std::move(result);
  }
  const auto stop = std::chrono::steady_clock::now();
  records_ = static_cast<std::size_t>(pipeline_->totals().connections);
  wall_seconds_ = std::chrono::duration<double>(stop - start).count();
}

void keep_only_clusters(gen::CampusModel& model,
                        std::initializer_list<const char*> prefixes) {
  std::vector<gen::TrafficCluster> kept;
  for (auto& cluster : model.clusters) {
    for (const char* prefix : prefixes) {
      if (cluster.name.rfind(prefix, 0) == 0) {
        kept.push_back(std::move(cluster));
        break;
      }
    }
  }
  model.clusters = std::move(kept);
  model.background_connections = 0;
  model.interception.connections = 0;
  model.interception.certificates = 0;
}

}  // namespace mtlscope::experiments
