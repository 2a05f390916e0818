// mtlbench: the compiled half of the repository benchmark. run.py drives
// the real `mtlscope` CLI for every end-to-end number; this helper does
// the parts that need the library's public API:
//
//   mtlbench stamp
//       build type, sanitizer and compiler this binary (and the CLI
//       built beside it) were compiled with, as JSON.
//   mtlbench prepare --seed=N --dir=D [--cert-scale=N --conn-scale=N]
//       seeded inputs: D/ssl.log + D/x509.log (the ingest-fixture model),
//       D/ssl_sorted.log (time-sorted copy for the watch replay),
//       D/fixture.mtlc (colfmt::compact_logs); prints their statistics as
//       JSON.
//   mtlbench setup --workload=W ...
//       times one cold set-up in this fresh process (see cmd_setup).
//   mtlbench trace ...       traced batch / paper_repro run (layers.cpp)
//   mtlbench trace-watch ... traced watch daemon replay (watch_trace.cpp)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "commands.hpp"
#include "mtlscope/colfmt/container.hpp"
#include "mtlscope/colfmt/convert.hpp"
#include "mtlscope/core/enrich.hpp"
#include "mtlscope/core/executor.hpp"
#include "mtlscope/gen/generator.hpp"
#include "mtlscope/ingest/chunker.hpp"
#include "mtlscope/ingest/source.hpp"
#include "mtlscope/zeek/log_io.hpp"

using namespace mtlscope;

namespace mtlbench {

namespace fs = std::filesystem;

std::vector<std::string> split_names(const std::string& csv) {
  std::vector<std::string> names;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::string name = csv.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    if (!name.empty()) names.push_back(name);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return names;
}

std::vector<Pass> synthetic_passes(const std::vector<std::string>& names,
                                   const experiments::RunOptions& base) {
  const auto& registry = experiments::ExperimentRegistry::instance();
  std::vector<Pass> passes;
  std::vector<std::string> keys;
  for (const auto& name : names) {
    const auto* entry = registry.find(name);
    if (entry == nullptr) {
      std::fprintf(stderr, "mtlbench: unknown experiment %s\n", name.c_str());
      std::exit(2);
    }
    const auto options =
        base.resolved(entry->info.cert_scale, entry->info.conn_scale);
    char key[256];
    std::snprintf(key, sizeof(key), "%s|%.17g|%.17g",
                  entry->make()->model_key().c_str(), options.cert_scale,
                  options.conn_scale);
    const auto it = std::find(keys.begin(), keys.end(), key);
    if (it == keys.end()) {
      keys.emplace_back(key);
      passes.push_back(Pass{options, {entry}});
    } else {
      passes[static_cast<std::size_t>(it - keys.begin())].entries.push_back(
          entry);
    }
  }
  return passes;
}

gen::CampusModel pass_model(const Pass& pass) {
  auto model =
      gen::paper_model(pass.options.cert_scale, pass.options.conn_scale);
  model.seed = pass.options.seed;
  for (const auto* entry : pass.entries) entry->make()->prepare_model(model);
  return model;
}

namespace {

int cmd_stamp() {
  JsonObject out;
  out.str("build_type", MTLBENCH_BUILD_TYPE)
      .str("sanitize", MTLBENCH_SANITIZE)
      .str("compiler", MTLBENCH_COMPILER);
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

}  // namespace

int cmd_prepare(const Flags& flags) {
  const fs::path dir = flags.get("dir");
  const auto seed = static_cast<std::uint64_t>(flags.number("seed", 1));
  const double cert_scale = flags.number("cert-scale", 2000);
  const double conn_scale = flags.number("conn-scale", 25000);
  fs::create_directories(dir);
  const std::string ssl = (dir / "ssl.log").string();
  const std::string x509 = (dir / "x509.log").string();
  const std::string sorted = (dir / "ssl_sorted.log").string();
  const std::string mtlc = (dir / "fixture.mtlc").string();

  std::size_t certificates = 0;
  {
    auto model = gen::paper_model(cert_scale, conn_scale);
    model.seed = seed;
    gen::TraceGenerator generator(std::move(model));
    const auto dataset = generator.generate_dataset();
    certificates = dataset.certificate_count();
    std::ofstream ssl_out(ssl, std::ios::binary);
    zeek::write_ssl_log(ssl_out, dataset.ssl());
    std::ofstream x509_out(x509, std::ios::binary);
    zeek::write_x509_log(x509_out, dataset);
    if (!ssl_out || !x509_out) {
      std::fprintf(stderr, "mtlbench: cannot write the logs under %s\n",
                   dir.c_str());
      return 1;
    }
  }

  std::size_t rows = 0;
  {
    LogRows log = split_log(slurp(ssl));
    rows = log.rows.size();
    std::stable_sort(log.rows.begin(), log.rows.end(),
                     [](std::string_view a, std::string_view b) {
                       return row_ts(a) < row_ts(b);
                     });
    std::ofstream out(sorted, std::ios::binary | std::ios::trunc);
    out << log.header;
    for (const auto row : log.rows) out << row;
    if (!out) {
      std::fprintf(stderr, "mtlbench: cannot write %s\n", sorted.c_str());
      return 1;
    }
  }

  colfmt::CompactRequest request;
  request.ssl_path = ssl;
  request.x509_path = x509;
  request.out_path = mtlc;
  colfmt::CompactStats stats;
  std::string error;
  if (!colfmt::compact_logs(request, &stats, &error)) {
    std::fprintf(stderr, "mtlbench: compact failed: %s\n", error.c_str());
    return 1;
  }

  JsonObject out;
  out.num("seed", static_cast<double>(seed))
      .num("cert_scale", cert_scale)
      .num("conn_scale", conn_scale)
      .num("ssl_rows", static_cast<double>(rows))
      .num("x509_rows", static_cast<double>(stats.x509_rows))
      .num("ssl_bytes", static_cast<double>(fs::file_size(ssl)))
      .num("x509_bytes", static_cast<double>(fs::file_size(x509)))
      .num("mtlc_bytes", static_cast<double>(fs::file_size(mtlc)))
      .num("distinct_certificates", static_cast<double>(certificates))
      .num("connections_per_certificate",
           certificates == 0 ? 0
                             : static_cast<double>(rows) /
                                   static_cast<double>(certificates));
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

// Set-up before the first record is consumed, timed in this fresh
// process: registry, executor and Enricher construction plus the
// workload's input open — open_source for TSV, ContainerReader::open
// (frame scan + digest) for .mtlc, model and TraceGenerator construction
// for paper_repro.
int cmd_setup(const Flags& flags) {
  const std::string workload = flags.get("workload");
  const auto threads = static_cast<std::size_t>(flags.number("threads", 1));
  const auto start = std::chrono::steady_clock::now();

  experiments::ExperimentRegistry::instance();
  auto config = core::PipelineConfig::campus_defaults();

  std::vector<std::unique_ptr<gen::TraceGenerator>> generators;
  if (workload == "paper_repro") {
    experiments::RunOptions base;
    base.seed = static_cast<std::uint64_t>(flags.number("seed", 20240504));
    base.threads = threads;
    for (const Pass& pass :
         synthetic_passes(split_names(flags.get("experiments")), base)) {
      generators.push_back(
          std::make_unique<gen::TraceGenerator>(pass_model(pass)));
    }
    config.ct = &generators.front()->ct_database();
  }
  core::PipelineExecutor executor(config, threads);
  const core::Enricher enricher(config);

  if (workload == "batch_tsv") {
    ingest::IngestError error;
    const auto ssl = ingest::open_source(flags.get("ssl-log"), &error);
    const auto x509 = ingest::open_source(flags.get("x509-log"), &error);
    if (!ssl || !x509) {
      std::fprintf(stderr, "mtlbench: %s\n", error.to_string().c_str());
      return 1;
    }
    ingest::detect_log_layout(*ssl);
    ingest::detect_log_layout(*x509);
  } else if (workload == "batch_mtlc") {
    std::string error;
    const auto reader = colfmt::ContainerReader::open(flags.get("mtlc"), &error);
    if (!reader) {
      std::fprintf(stderr, "mtlbench: %s\n", error.c_str());
      return 1;
    }
  } else if (workload != "paper_repro") {
    std::fprintf(stderr, "mtlbench: unknown workload %s\n", workload.c_str());
    return 2;
  }

  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  JsonObject out;
  out.num("setup_s", seconds);
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

}  // namespace mtlbench

int main(int argc, char** argv) {
  using namespace mtlbench;
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s stamp | prepare | setup | trace | "
                 "trace-watch [--flags]\n",
                 argv[0]);
    return 2;
  }
  const std::string command = argv[1];
  const Flags flags(argc, argv, 2);
  if (command == "stamp") return cmd_stamp();
  if (command == "prepare") return cmd_prepare(flags);
  if (command == "setup") return cmd_setup(flags);
  if (command == "trace") return cmd_trace(flags);
  if (command == "trace-watch") return cmd_trace_watch(flags);
  std::fprintf(stderr, "mtlbench: unknown command %s\n", command.c_str());
  return 2;
}
