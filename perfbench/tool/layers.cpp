// mtlbench trace: the traced run of batch_tsv, batch_mtlc and
// paper_repro. Every span wraps a call into one module's public API from
// this file; nothing inside src/ is instrumented. Three parts:
//
//   1. Executor runs with the CLI's eight standard analyzers attached
//      (run_log_files / run_container / run(dataset)): once at one
//      thread, once at --threads, with rusage CPU deltas.
//   2. A serial layer decomposition of the same input, one module at a
//      time: ingest open_source + RecordChunker, the tolerant Zeek
//      parsers, container open / SslBlockScan / decode_x509_block,
//      x509::parse_certificate per distinct DER, Enricher::make_facts,
//      Enricher::enrich with an EnrichCache, and each analyzer's
//      observe(). `core.executor.unaccounted_s` is the one-thread
//      executor wall minus these serial spans. The decomposition holds
//      the densest spans (per chunk, per block), so it also runs twice
//      with a non-recording tracer, before and after the traced run:
//      the tracing overhead is the traced wall minus the mean of those
//      two untraced walls.
//   3. A replica of the CLI job through the registry's public pieces
//      (Harness, Experiment::attach/report, render_json_with_perf,
//      atomic_publish_file), checked against the CLI's own output.
//
// Flags: --workload=batch_tsv|batch_mtlc|paper_repro --threads=N
//        --experiments=a,b --ssl-log= --x509-log= (tsv) | --mtlc= (container)
//        | --seed=N [--cert-scale=N --conn-scale=N] (paper_repro)
//        --out-dir=DIR --trace-out=FILE
// Prints one JSON object of per-layer metrics.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <unordered_set>

#include "commands.hpp"
#include "mtlscope/colfmt/container.hpp"
#include "mtlscope/colfmt/scan.hpp"
#include "mtlscope/core/analyzers.hpp"
#include "mtlscope/core/enrich.hpp"
#include "mtlscope/core/executor.hpp"
#include "mtlscope/core/result_doc.hpp"
#include "mtlscope/gen/generator.hpp"
#include "mtlscope/ingest/chunker.hpp"
#include "mtlscope/ingest/durable_io.hpp"
#include "mtlscope/ingest/source.hpp"
#include "mtlscope/x509/parser.hpp"
#include "mtlscope/zeek/log_io.hpp"
#include "mtlscope/zeek/parse_plan.hpp"
#include "spans.hpp"

using namespace mtlscope;

namespace mtlbench {

namespace {

namespace fs = std::filesystem;

/// The eight standard analyzers the CLI's experiments attach, one
/// Sharded instance each.
struct ShardedAnalyzers {
  explicit ShardedAnalyzers(std::size_t shards)
      : prevalence(shards),
        service_port(shards),
        inbound_association(shards),
        outbound_flow(shards),
        dummy_issuer(shards),
        serial_collision(shards),
        shared_cert(shards),
        incorrect_date(shards) {}
  void attach(core::PipelineExecutor& executor) {
    executor.attach(prevalence);
    executor.attach(service_port);
    executor.attach(inbound_association);
    executor.attach(outbound_flow);
    executor.attach(dummy_issuer);
    executor.attach(serial_collision);
    executor.attach(shared_cert);
    executor.attach(incorrect_date);
  }
  core::Sharded<core::PrevalenceAnalyzer> prevalence;
  core::Sharded<core::ServicePortAnalyzer> service_port;
  core::Sharded<core::InboundAssociationAnalyzer> inbound_association;
  core::Sharded<core::OutboundFlowAnalyzer> outbound_flow;
  core::Sharded<core::DummyIssuerAnalyzer> dummy_issuer;
  core::Sharded<core::SerialCollisionAnalyzer> serial_collision;
  core::Sharded<core::SharedCertAnalyzer> shared_cert;
  core::Sharded<core::IncorrectDateAnalyzer> incorrect_date;
};

/// Input of one executor run, whatever the workload's format.
struct ExecutorInput {
  std::string ssl_log, x509_log;               // batch_tsv
  const colfmt::ContainerReader* reader = nullptr;  // batch_mtlc
  const zeek::Dataset* dataset = nullptr;      // paper_repro
};

/// One executor run with the standard analyzers attached, as a span
/// named `name`; CPU seconds go into `<name>.cpu_user_s`/`.cpu_sys_s`.
bool run_executor(Tracer& tracer, const std::string& name,
                  const core::PipelineConfig& config, std::size_t threads,
                  const ExecutorInput& input) {
  core::PipelineExecutor executor(config, threads);
  ShardedAnalyzers analyzers(executor.shard_count());
  analyzers.attach(executor);
  double user0 = 0, sys0 = 0, user1 = 0, sys1 = 0;
  cpu_times(&user0, &sys0);
  bool ok = true;
  {
    Tracer::Scope span(tracer, name);
    ingest::IngestError error;
    if (input.dataset != nullptr) {
      executor.run(*input.dataset);
    } else if (input.reader != nullptr) {
      ok = executor.run_container(*input.reader, &error).has_value();
    } else {
      ok = executor.run_log_files(input.ssl_log, input.x509_log, &error)
               .has_value();
    }
    if (!ok) {
      std::fprintf(stderr, "mtlbench trace: %s failed: %s\n", name.c_str(),
                   error.to_string().c_str());
    }
  }
  cpu_times(&user1, &sys1);
  tracer.add_counter(name + ".cpu_user_s", user1 - user0);
  tracer.add_counter(name + ".cpu_sys_s", sys1 - sys0);
  return ok;
}

/// Records of one input, materialized for the serial decomposition.
struct Records {
  std::vector<zeek::SslRecord> ssl;
  std::vector<zeek::X509Record> x509;
};

/// ingest.read + zeek.parse_* over one TSV log, chunked as a run
/// chunks it (1 MiB record-aligned chunks).
template <typename Record, typename Plan, typename ParseFn>
bool read_and_parse(Tracer& tracer, const std::string& path,
                    const char* parse_span, ParseFn parse,
                    std::vector<Record>& out) {
  std::unique_ptr<ingest::Source> source;
  ingest::LogLayout layout;
  {
    Tracer::Scope span(tracer, "ingest.read");
    ingest::IngestError error;
    source = ingest::open_source(path, &error);
    if (!source) {
      std::fprintf(stderr, "mtlbench trace: %s\n", error.to_string().c_str());
      return false;
    }
    layout = ingest::detect_log_layout(*source);
  }
  const Plan plan =
      Plan::compile(zeek::ColumnPlan::from_header(layout.header));
  const auto header_lines = static_cast<std::size_t>(
      std::count(layout.header.begin(), layout.header.end(), '\n'));
  tracer.add_counter("ingest.read.bytes",
                     static_cast<double>(layout.header.size()));
  ingest::RecordChunker chunker(*source, std::size_t{1} << 20,
                                layout.body_begin, source->size());
  ingest::Chunk chunk;
  std::vector<zeek::RowIssue> issues;
  while (true) {
    bool more = false;
    {
      Tracer::Scope span(tracer, "ingest.read");
      more = chunker.next(chunk);
    }
    if (!more) break;
    tracer.add_counter("ingest.read.bytes",
                       static_cast<double>(chunk.view().size()));
    // One vector per chunk, as the executor's workers parse: the parser
    // reserves per call, so appending to one growing vector would
    // re-allocate it on every chunk.
    std::vector<Record> part;
    zeek::TolerantStats stats;
    {
      Tracer::Scope span(tracer, parse_span);
      stats = parse(chunk.view(), plan, part, &issues, header_lines,
                    chunk.offset);
    }
    tracer.add_counter(std::string(parse_span) + ".records",
                       static_cast<double>(stats.rows_ok));
    tracer.add_counter(std::string(parse_span) + ".quarantined",
                       static_cast<double>(stats.rows_bad));
    out.insert(out.end(), std::make_move_iterator(part.begin()),
               std::make_move_iterator(part.end()));
  }
  return true;
}

bool decompose_tsv(Tracer& tracer, const std::string& ssl_log,
                   const std::string& x509_log, Records& records) {
  return read_and_parse<zeek::X509Record, zeek::X509Plan>(
             tracer, x509_log, "zeek.parse_x509",
             zeek::parse_x509_records_tolerant, records.x509) &&
         read_and_parse<zeek::SslRecord, zeek::SslPlan>(
             tracer, ssl_log, "zeek.parse_ssl",
             zeek::parse_ssl_records_tolerant, records.ssl);
}

/// colfmt.decode_x509 and colfmt.scan_ssl block by block; the ssl rows
/// the later layers need are materialized outside those spans.
void decompose_container(Tracer& tracer, const colfmt::ContainerReader& reader,
                         Records& records) {
  for (const auto& block : reader.x509_blocks()) {
    Tracer::Scope span(tracer, "colfmt.decode_x509");
    auto rows = reader.decode_x509_block(block);
    std::move(rows.begin(), rows.end(), std::back_inserter(records.x509));
  }
  zeek::SslRecord row;
  for (const auto& block : reader.ssl_blocks()) {
    Tracer::Scope span(tracer, "colfmt.scan_ssl");
    colfmt::SslBlockScan scan =
        reader.scan_ssl_block(block, colfmt::SslScanColumns::pipeline());
    while (!scan.done()) scan.next(row);
    tracer.add_counter("colfmt.scan_ssl.records",
                       static_cast<double>(scan.rows()));
  }
  for (const auto& block : reader.ssl_blocks()) {
    Tracer::Scope span(tracer, "colfmt.decode_ssl");
    auto rows = reader.decode_ssl_block(block);
    std::move(rows.begin(), rows.end(), std::back_inserter(records.ssl));
  }
}

/// x509.parse, core.enrich.facts, core.enrich.conn and the analyzers,
/// serially over materialized records.
void decompose_core(Tracer& tracer, const core::PipelineConfig& config,
                    const Records& records) {
  {
    Tracer::Scope span(tracer, "x509.parse");
    std::unordered_set<const char*> seen;
    for (const auto& row : records.x509) {
      if (row.cert_der.empty() || !seen.insert(row.cert_der.data()).second) {
        continue;
      }
      const auto result = x509::parse_certificate(std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(row.cert_der.data()),
          row.cert_der.size()));
      tracer.add_counter(x509::get_certificate(result) != nullptr
                             ? "x509.parse.certs"
                             : "x509.parse.failures",
                         1);
    }
  }

  const core::Enricher enricher(config);
  core::Pipeline::CertMap facts;
  {
    Tracer::Scope span(tracer, "core.enrich.facts");
    for (const auto& row : records.x509) {
      auto made = enricher.make_facts(row);
      facts.emplace(row.fuid, std::move(made));  // first fuid wins
    }
  }
  const auto facts_stats = enricher.facts_cache_stats();
  tracer.add_counter("core.enrich.facts.hits",
                     static_cast<double>(facts_stats.hits));
  tracer.add_counter("core.enrich.facts.misses",
                     static_cast<double>(facts_stats.misses));

  std::vector<core::EnrichedConnection> conns;
  conns.reserve(records.ssl.size());
  core::EnrichCache cache;
  {
    Tracer::Scope span(tracer, "core.enrich.conn");
    const auto leaf = [&facts](const colfmt::StrVec& chain)
        -> const core::CertFacts* {
      if (chain.empty()) return nullptr;
      const auto it = facts.find(chain.front());
      return it == facts.end() ? nullptr : &it->second;
    };
    for (const auto& row : records.ssl) {
      if (!row.established) continue;
      conns.push_back(enricher.enrich(row, leaf(row.cert_chain_fuids),
                                      leaf(row.client_cert_chain_fuids),
                                      cache));
    }
  }
  tracer.add_counter("core.enrich.conn.hits", static_cast<double>(cache.hits));
  tracer.add_counter("core.enrich.conn.misses",
                     static_cast<double>(cache.misses));

  const auto observe_all = [&](const char* name, auto analyzer) {
    Tracer::Scope span(tracer, name);
    for (const auto& conn : conns) analyzer.observe(conn);
  };
  observe_all("core.analyzers.prevalence", core::PrevalenceAnalyzer{});
  observe_all("core.analyzers.service_port", core::ServicePortAnalyzer{});
  observe_all("core.analyzers.inbound_association",
              core::InboundAssociationAnalyzer{});
  observe_all("core.analyzers.outbound_flow", core::OutboundFlowAnalyzer{});
  observe_all("core.analyzers.dummy_issuer", core::DummyIssuerAnalyzer{});
  observe_all("core.analyzers.serial_collision",
              core::SerialCollisionAnalyzer{});
  observe_all("core.analyzers.shared_cert", core::SharedCertAnalyzer{});
  observe_all("core.analyzers.incorrect_date", core::IncorrectDateAnalyzer{});
}

/// The CLI job through the registry's public pieces, one pass at a time:
/// Harness construction and attach, harness.run() (open + executor, or
/// generation + executor), Experiment::report, render_json_with_perf
/// (the CLI's --format=json --stable-output rendering) and the durable
/// --out publish.
bool replica(Tracer& tracer, const std::vector<Pass>& passes,
             const std::string& out_dir) {
  fs::create_directories(out_dir);
  for (const Pass& pass : passes) {
    std::optional<experiments::Harness> harness;
    std::vector<std::unique_ptr<experiments::Experiment>> exps;
    {
      Tracer::Scope span(tracer, "experiments.setup");
      harness.emplace(pass_model(pass), pass.options);
      for (const auto* entry : pass.entries) exps.push_back(entry->make());
    }
    {
      Tracer::Scope span(tracer, "experiments.attach");
      for (auto& exp : exps) exp->attach(*harness);
    }
    {
      Tracer::Scope span(tracer, "experiments.run");
      harness->run();
    }
    for (std::size_t i = 0; i < exps.size(); ++i) {
      const auto& info = pass.entries[i]->info;
      core::ResultDoc doc;
      doc.experiment = info.name;
      doc.anchor = info.anchor;
      doc.title = info.title;
      doc.run.present = true;
      doc.run.file_mode = pass.options.file_mode();
      doc.run.ssl_log = harness->options().ssl_log;
      doc.run.x509_log = harness->options().x509_log;
      doc.run.cert_scale = pass.options.cert_scale;
      doc.run.conn_scale = pass.options.conn_scale;
      doc.run.seed = pass.options.seed;
      doc.run.stable_output = true;
      doc.run.threads = harness->shard_count();
      doc.run.records = harness->records_processed();
      {
        Tracer::Scope span(tracer, "experiments.report");
        exps[i]->report(*harness, doc);
      }
      std::string text;
      {
        Tracer::Scope span(tracer, "core.result_doc.render");
        text = core::render_json_with_perf(doc, 2, /*include_perf=*/false);
      }
      tracer.add_counter("core.result_doc.render.bytes",
                         static_cast<double>(text.size()));
      Tracer::Scope span(tracer, "ingest.durable_io.publish");
      const auto result = ingest::atomic_publish_file(
          (fs::path(out_dir) / (doc.experiment + ".json")).string(), text,
          "cli.out");
      if (!result.ok) {
        std::fprintf(stderr, "mtlbench trace: publish failed: %s\n",
                     result.message.c_str());
        return false;
      }
    }
  }
  return true;
}

double ratio(double part, double whole) { return whole <= 0 ? 0 : part / whole; }

/// Walls of the serial decomposition with and without spans.
struct Overhead {
  double traced = 0;
  double untraced = 0;
};

/// Runs `decompose` untraced, then traced into `tracer`, then untraced
/// again; the two untraced walls are averaged so that warm-up and drift
/// between the runs cancel to first order.
template <typename Fn>
bool decompose_timed(Tracer& tracer, const Fn& decompose, Overhead& overhead) {
  Tracer quiet(/*record=*/false);
  const double t0 = quiet.now();
  if (!decompose(quiet)) return false;
  const double t1 = quiet.now();
  if (!decompose(tracer)) return false;
  const double t2 = quiet.now();
  if (!decompose(quiet)) return false;
  const double t3 = quiet.now();
  overhead.traced += t2 - t1;
  overhead.untraced += ((t1 - t0) + (t3 - t2)) / 2;
  return true;
}

}  // namespace

int cmd_trace(const Flags& flags) {
  const std::string workload = flags.get("workload");
  const auto threads = static_cast<std::size_t>(flags.number("threads", 1));
  const std::string out_dir = flags.get("out-dir");
  Tracer tracer;
  const auto& counters = ingest::write_retry_counters();
  const auto fsyncs = [&] {
    return static_cast<double>(counters.fsyncs.load() + counters.dir_fsyncs.load());
  };
  const auto retries = [&] {
    return static_cast<double>(counters.eintr_retries.load() +
                               counters.short_writes.load() +
                               counters.backoff_sleeps.load());
  };

  // The CLI job's experiments and passes: in file mode every batch
  // experiment shares one pass, as `mtlscope run` shares it.
  experiments::RunOptions base;
  base.threads = threads;
  base.stable_output = true;
  std::vector<Pass> passes;
  if (workload == "paper_repro") {
    base.seed = static_cast<std::uint64_t>(flags.number("seed", 20240504));
    if (flags.has("cert-scale")) {
      base.cert_scale_override = flags.number("cert-scale", 1);
      base.conn_scale_override = flags.number("conn-scale", 1);
    }
    passes = synthetic_passes(split_names(flags.get("experiments")), base);
  } else if (workload == "batch_tsv" || workload == "batch_mtlc") {
    if (workload == "batch_mtlc") {
      base.ssl_log = flags.get("mtlc");
    } else {
      base.ssl_log = flags.get("ssl-log");
      base.x509_log = flags.get("x509-log");
    }
    passes = synthetic_passes(split_names(flags.get("experiments")), base);
    for (std::size_t i = 1; i < passes.size(); ++i) {
      passes[0].entries.insert(passes[0].entries.end(),
                               passes[i].entries.begin(),
                               passes[i].entries.end());
    }
    passes.resize(1);
  } else {
    std::fprintf(stderr, "mtlbench trace: unknown workload %s\n",
                 workload.c_str());
    return 2;
  }

  // The replica runs first, in a cold process like the CLI job it is
  // compared with; the layer runs below see warm interning arenas.
  const double fsyncs0 = fsyncs();
  const double retries0 = retries();
  {
    Tracer::Scope span(tracer, "replica");
    if (!replica(tracer, passes, out_dir)) return 1;
  }
  const double replica_fsyncs = fsyncs() - fsyncs0;
  const double replica_retries = retries() - retries0;

  Overhead overhead;
  if (workload == "paper_repro") {
    for (const Pass& pass : passes) {
      auto generator = std::make_unique<gen::TraceGenerator>(pass_model(pass));
      std::optional<zeek::Dataset> dataset;
      {
        Tracer::Scope span(tracer, "gen.generate");
        dataset.emplace(generator->generate_dataset());
      }
      tracer.add_counter("gen.generate.connections",
                         static_cast<double>(generator->stats().connections));
      tracer.add_counter(
          "gen.generate.certificates",
          static_cast<double>(generator->stats().certificates_minted));
      auto config = core::PipelineConfig::campus_defaults();
      config.ct = &generator->ct_database();
      ExecutorInput input;
      input.dataset = &*dataset;
      if (!run_executor(tracer, "core.executor.run_1t", config, 1, input) ||
          !run_executor(tracer, "core.executor.run_nt", config, threads,
                        input)) {
        return 1;
      }
      Records records;
      records.ssl = dataset->ssl();
      for (const auto& [fuid, row] : dataset->x509()) records.x509.push_back(row);
      dataset.reset();
      decompose_timed(
          tracer,
          [&](Tracer& t) {
            decompose_core(t, config, records);
            return true;
          },
          overhead);
    }
  } else {
    const auto config = core::PipelineConfig::campus_defaults();
    ExecutorInput input;
    std::optional<colfmt::ContainerReader> reader;
    if (workload == "batch_mtlc") {
      std::string error;
      {
        Tracer::Scope span(tracer, "colfmt.open");
        reader = colfmt::ContainerReader::open(base.ssl_log, &error);
      }
      if (!reader) {
        std::fprintf(stderr, "mtlbench trace: %s\n", error.c_str());
        return 1;
      }
      input.reader = &*reader;
    } else {
      input.ssl_log = base.ssl_log;
      input.x509_log = base.x509_log;
    }
    if (!run_executor(tracer, "core.executor.run_1t", config, 1, input) ||
        !run_executor(tracer, "core.executor.run_nt", config, threads, input)) {
      return 1;
    }
    const auto decompose = [&](Tracer& t) {
      Records records;
      if (reader) {
        decompose_container(t, *reader, records);
      } else if (!decompose_tsv(t, input.ssl_log, input.x509_log, records)) {
        return false;
      }
      decompose_core(t, config, records);
      return true;
    };
    if (!decompose_timed(tracer, decompose, overhead)) return 1;
  }

  double serial = 0;
  for (const char* layer :
       {"ingest.read", "zeek.parse_ssl", "zeek.parse_x509", "colfmt.scan_ssl",
        "colfmt.decode_x509", "core.enrich.facts", "core.enrich.conn",
        "core.analyzers.prevalence", "core.analyzers.service_port",
        "core.analyzers.inbound_association", "core.analyzers.outbound_flow",
        "core.analyzers.dummy_issuer", "core.analyzers.serial_collision",
        "core.analyzers.shared_cert", "core.analyzers.incorrect_date"}) {
    serial += tracer.total(layer);
  }

  JsonObject out;
  const auto busy = [&](const std::string& name) {
    out.num(name + ".busy_s", tracer.total(name));
  };
  const auto counter = [&](const std::string& name) {
    out.num(name, tracer.counter(name));
  };
  for (const char* layer :
       {"ingest.read", "zeek.parse_ssl", "zeek.parse_x509", "colfmt.open",
        "colfmt.scan_ssl", "colfmt.decode_x509", "x509.parse",
        "core.enrich.facts", "core.enrich.conn", "core.analyzers.prevalence",
        "core.analyzers.service_port", "core.analyzers.inbound_association",
        "core.analyzers.outbound_flow", "core.analyzers.dummy_issuer",
        "core.analyzers.serial_collision", "core.analyzers.shared_cert",
        "core.analyzers.incorrect_date", "experiments.report",
        "core.result_doc.render", "ingest.durable_io.publish",
        "gen.generate", "experiments.run"}) {
    busy(layer);
  }
  for (const char* name :
       {"ingest.read.bytes", "zeek.parse_ssl.records",
        "zeek.parse_ssl.quarantined", "zeek.parse_x509.quarantined",
        "colfmt.scan_ssl.records", "x509.parse.certs", "x509.parse.failures",
        "core.result_doc.render.bytes", "gen.generate.connections",
        "gen.generate.certificates", "core.executor.run_nt.cpu_user_s",
        "core.executor.run_nt.cpu_sys_s"}) {
    counter(name);
  }
  out.num("core.enrich.facts.hit_ratio",
          ratio(tracer.counter("core.enrich.facts.hits"),
                tracer.counter("core.enrich.facts.hits") +
                    tracer.counter("core.enrich.facts.misses")))
      .num("core.enrich.conn.hit_ratio",
           ratio(tracer.counter("core.enrich.conn.hits"),
                 tracer.counter("core.enrich.conn.hits") +
                     tracer.counter("core.enrich.conn.misses")))
      .num("core.executor.run_1t.wall_s", tracer.total("core.executor.run_1t"))
      .num("core.executor.run_nt.wall_s", tracer.total("core.executor.run_nt"))
      .num("core.executor.unaccounted_s",
           tracer.total("core.executor.run_1t") - serial)
      .num("ingest.durable_io.fsyncs", replica_fsyncs)
      .num("ingest.durable_io.write_retries", replica_retries)
      .num("trace.traced_wall_s", overhead.traced)
      .num("trace.untraced_wall_s", overhead.untraced)
      .num("trace.overhead_s", overhead.traced - overhead.untraced)
      .num("trace.spans", static_cast<double>(tracer.spans().size()));
  const std::string trace_out = flags.get("trace-out");
  if (!tracer.write_chrome_trace(trace_out)) {
    std::fprintf(stderr, "mtlbench trace: cannot write %s\n", trace_out.c_str());
    return 1;
  }
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

}  // namespace mtlbench
