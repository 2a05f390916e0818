#include "mtlscope/experiments/registry.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "experiments_internal.hpp"
#include "mtlscope/colfmt/container.hpp"
#include "mtlscope/ingest/durable_io.hpp"

namespace mtlscope::experiments {

namespace {

/// Canonical listing/run order: the paper's tables, then figures, then
/// sections and extensions, then ablations.
constexpr const char* kCanonicalOrder[] = {
    "table1",  "table2",  "table3",  "table4",  "table5",  "table6",
    "table7",  "table8",  "table9",  "table13", "table14", "fig1",
    "fig2",    "fig3",    "fig4",    "fig5",    "serials", "interception",
    "dataset_stats", "tracking", "renewal", "ablation_classifier",
    "ablation_interception",
};

}  // namespace

ExperimentRegistry::ExperimentRegistry() {
  register_cert_experiments(*this);
  register_traffic_experiments(*this);
  register_sharing_experiments(*this);
  register_lifecycle_experiments(*this);
  register_interception_experiments(*this);

  // Reorder into the canonical sequence; anything unlisted keeps its
  // registration order at the end.
  std::vector<Entry> ordered;
  ordered.reserve(entries_.size());
  for (const char* name : kCanonicalOrder) {
    for (auto& entry : entries_) {
      if (entry.make != nullptr && entry.info.name == std::string(name)) {
        ordered.push_back(std::move(entry));
        entry.make = nullptr;
      }
    }
  }
  for (auto& entry : entries_) {
    if (entry.make != nullptr) ordered.push_back(std::move(entry));
  }
  entries_ = std::move(ordered);
}

const ExperimentRegistry& ExperimentRegistry::instance() {
  static const ExperimentRegistry registry;
  return registry;
}

const ExperimentRegistry::Entry* ExperimentRegistry::find(
    const std::string& name) const {
  for (const auto& entry : entries_) {
    if (name == entry.info.name) return &entry;
  }
  return nullptr;
}

std::vector<std::string> ExperimentRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& entry : entries_) out.emplace_back(entry.info.name);
  return out;
}

std::vector<std::string> ExperimentRegistry::distributable_names() const {
  std::vector<std::string> out;
  for (const auto& entry : entries_) {
    if (entry.make()->distributable()) out.emplace_back(entry.info.name);
  }
  return out;
}

void ExperimentRegistry::add(ExperimentInfo info,
                             std::unique_ptr<Experiment> (*make)()) {
  entries_.push_back(Entry{info, make});
}

namespace {

struct Item {
  const ExperimentRegistry::Entry* entry = nullptr;
  std::unique_ptr<Experiment> exp;
  RunOptions options;
  std::string group;
  core::ResultDoc doc;
};

/// Lifts the harness ledger into the doc's data-quality block. Present
/// only when the ledger is not pristine, so clean-input runs render
/// byte-identically under every --on-error policy (DESIGN §11).
void fill_data_quality(core::RunInfo& run, const core::ErrorLedger& ledger,
                       const RunOptions& options) {
  if (ledger.pristine()) return;
  core::DataQualityInfo& dq = run.data_quality;
  dq.present = true;
  dq.policy = options.errors.skip() ? "skip" : "abort";
  dq.rows_ok = ledger.rows_ok_total();
  dq.ssl_quarantined = ledger.quarantined(core::InputRole::kSsl);
  dq.x509_quarantined = ledger.quarantined(core::InputRole::kX509);
  dq.io_events = ledger.io_events();
  // Per-reason breakdown: exact counts per (role, structured reason),
  // roles in enum order, reasons sorted (std::map iteration).
  for (std::size_t role = 0; role < core::kInputRoles; ++role) {
    const auto input = static_cast<core::InputRole>(role);
    for (const auto& [reason, count] : ledger.reasons(input)) {
      dq.reasons.push_back(core::QuarantineReason{
          core::input_role_name(input), reason, count});
    }
  }
  constexpr std::size_t kMaxSamples = 8;
  const auto& entries = ledger.entries();
  const std::size_t take = std::min(entries.size(), kMaxSamples);
  dq.samples.reserve(take);
  for (std::size_t i = 0; i < take; ++i) {
    const core::QuarantinedRecord& rec = entries[i];
    dq.samples.push_back(core::QuarantineSample{
        core::input_role_name(rec.input), rec.byte_offset, rec.line,
        rec.reason, rec.digest});
  }
  dq.samples_truncated =
      ledger.samples_truncated() || entries.size() > take;
}

/// Snapshots the process-global write-path durability counters
/// (DESIGN §16) into the doc's volatile perf fields. Always present on
/// executor-backed docs; --stable-output suppresses the rendering.
void fill_durability(core::RunInfo& run) {
  const auto& wc = ingest::write_retry_counters();
  const auto get = [](const std::atomic<std::uint64_t>& v) {
    return v.load(std::memory_order_relaxed);
  };
  run.durability_present = true;
  run.write_retries = get(wc.eintr_retries) + get(wc.short_writes) +
                      get(wc.backoff_sleeps);
  run.write_failures = get(wc.write_failures);
  run.fsyncs = get(wc.fsyncs);
  run.dir_fsyncs = get(wc.dir_fsyncs);
  run.atomic_publishes = get(wc.atomic_publishes);
  run.ckpt_gens_written = get(wc.checkpoint_gens_written);
  run.ckpt_gens_restored = get(wc.checkpoint_gens_restored);
  run.degraded_episodes = get(wc.degraded_episodes);
}

/// `ssl_label`/`x509_label` name the inputs in the config block. For a
/// compact-container input they are the TSV pair from the container's
/// meta frame, so the doc matches the TSV run byte-for-byte; otherwise
/// they equal the option paths.
void init_doc(Item& item, std::size_t threads_resolved,
              const std::string& ssl_label, const std::string& x509_label) {
  const ExperimentInfo& info = item.entry->info;
  item.doc.experiment = info.name;
  item.doc.anchor = info.anchor;
  item.doc.title = info.title;
  core::RunInfo& run = item.doc.run;
  run.file_mode = item.options.file_mode();
  run.ssl_log = ssl_label;
  run.x509_log = x509_label;
  run.cert_scale = item.options.cert_scale;
  run.conn_scale = item.options.conn_scale;
  run.seed = item.options.seed;
  run.stable_output = item.options.stable_output;
  run.threads_requested = item.options.threads;
  run.threads = threads_resolved;
  run.perf_group = item.group;
}

}  // namespace

std::vector<core::ResultDoc> run_experiments(
    const std::vector<std::string>& names, const RunOptions& base) {
  const auto& registry = ExperimentRegistry::instance();
  // Input labels for every doc's config block, resolved once: a compact
  // container reports the TSV pair it was converted from.
  std::string ssl_label = base.ssl_log;
  std::string x509_label = base.x509_log;
  if (base.compact_input()) {
    if (const auto meta = colfmt::read_container_meta(base.ssl_log)) {
      ssl_label = meta->ssl_path;
      x509_label = meta->x509_path;
    }
  }
  std::vector<Item> items;
  items.reserve(names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    const auto* entry = registry.find(names[i]);
    if (entry == nullptr) {
      throw std::invalid_argument("unknown experiment: " + names[i]);
    }
    Item item;
    item.entry = entry;
    item.exp = entry->make();
    item.options =
        base.resolved(entry->info.cert_scale, entry->info.conn_scale);
    if (item.exp->self_driving()) {
      // Self-driving experiments never share a pass.
      item.group = core::strf("self|%zu", i);
    } else if (item.options.file_mode()) {
      // One log pass serves every experiment: the model is unused.
      item.group = "file";
    } else {
      item.group = item.exp->model_key() +
                   core::strf("|%.17g|%.17g|%llu", item.options.cert_scale,
                              item.options.conn_scale,
                              static_cast<unsigned long long>(
                                  item.options.seed));
    }
    items.push_back(std::move(item));
  }

  std::vector<bool> done(items.size(), false);
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (done[i]) continue;
    std::vector<std::size_t> group;
    for (std::size_t j = i; j < items.size(); ++j) {
      if (!done[j] && items[j].group == items[i].group) {
        group.push_back(j);
        done[j] = true;
      }
    }
    Item& lead = items[i];
    if (lead.exp->self_driving()) {
      init_doc(lead,
               core::PipelineExecutor::resolve_threads(lead.options.threads),
               ssl_label, x509_label);
      lead.exp->run_self(lead.options, lead.doc);
      continue;
    }
    auto model =
        gen::paper_model(lead.options.cert_scale, lead.options.conn_scale);
    model.seed = lead.options.seed;
    for (const std::size_t j : group) items[j].exp->prepare_model(model);
    Harness harness(std::move(model), lead.options);
    for (const std::size_t j : group) items[j].exp->attach(harness);
    harness.run();
    for (const std::size_t j : group) {
      Item& item = items[j];
      init_doc(item, harness.shard_count(), ssl_label, x509_label);
      core::RunInfo& run = item.doc.run;
      run.present = true;
      if (!item.options.file_mode()) {
        const auto& stats = harness.generator().stats();
        run.gen_stats = true;
        run.gen_connections = stats.connections;
        run.gen_mutual = stats.mutual_connections;
        run.gen_certificates = stats.certificates_minted;
      }
      run.records = harness.records_processed();
      run.wall_seconds = harness.wall_seconds();
      run.generate_seconds = harness.generate_seconds();
      run.parse_bytes = harness.parse_bytes();
      const auto& scan_stats = harness.executor().last_run_stats();
      run.scan = scan_stats.scan;
      run.facts_cache_hits = scan_stats.facts_hits;
      run.facts_cache_misses = scan_stats.facts_misses;
      run.facts_cache_unique = scan_stats.facts_unique;
      run.enrich_cache_hits = scan_stats.enrich_hits;
      run.enrich_cache_misses = scan_stats.enrich_misses;
      run.enrich_cache_unique = scan_stats.enrich_unique;
      fill_data_quality(run, harness.ledger(), item.options);
      fill_durability(run);
      item.exp->report(harness, item.doc);
    }
  }

  std::vector<core::ResultDoc> docs;
  docs.reserve(items.size());
  for (auto& item : items) docs.push_back(std::move(item.doc));
  return docs;
}

core::ResultDoc run_experiment(const std::string& name,
                               const RunOptions& base) {
  auto docs = run_experiments({name}, base);
  return std::move(docs.front());
}

std::vector<core::ResultDoc> run_reduced(const std::vector<std::string>& names,
                                         core::ShardState state,
                                         const ReduceInfo& reduce_info,
                                         const RunOptions& base) {
  const auto& registry = ExperimentRegistry::instance();
  std::vector<Item> items;
  items.reserve(names.size());
  for (const auto& name : names) {
    const auto* entry = registry.find(name);
    if (entry == nullptr) {
      throw std::invalid_argument("unknown experiment: " + name);
    }
    Item item;
    item.entry = entry;
    item.exp = entry->make();
    if (!item.exp->distributable()) {
      throw std::invalid_argument(
          "experiment not distributable from shard state: " + name);
    }
    item.options =
        base.resolved(entry->info.cert_scale, entry->info.conn_scale);
    item.group = "reduce";
    items.push_back(std::move(item));
  }
  if (items.empty()) return {};

  // One reduce-mode harness serves every experiment, mirroring the
  // single shared "file" pass of run_experiments: the lead item's
  // resolved options label every doc, so the canonical config block
  // matches the single-host run over the same inputs.
  Harness harness(items.front().options, std::move(state));
  for (auto& item : items) {
    init_doc(item, harness.shard_count(), item.options.ssl_log,
             item.options.x509_log);
    core::RunInfo& run = item.doc.run;
    run.present = true;
    run.records = harness.records_processed();
    run.wall_seconds = harness.wall_seconds();
    run.parse_bytes = harness.parse_bytes();
    run.state_format_version = reduce_info.state_format_version;
    run.state_digest = reduce_info.state_digest;
    fill_data_quality(run, harness.ledger(), item.options);
    fill_durability(run);
    item.exp->report(harness, item.doc);
  }

  std::vector<core::ResultDoc> docs;
  docs.reserve(items.size());
  for (auto& item : items) docs.push_back(std::move(item.doc));
  return docs;
}

std::string paper_vs(double paper_pct, double measured_pct) {
  return "paper " + core::format_double(paper_pct, 2) + "% / measured " +
         core::format_double(measured_pct, 2) + "%";
}

std::string paper_vs_count(double paper, double measured) {
  return "paper " + core::format_count(static_cast<std::uint64_t>(paper)) +
         " / measured " +
         core::format_count(static_cast<std::uint64_t>(measured));
}

}  // namespace mtlscope::experiments
