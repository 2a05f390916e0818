// log_tools: round-trip mtlscope through the filesystem.
//
//   ./build/examples/log_tools export DIR   write ssl.log + x509.log for a
//                                           scaled synthetic campus trace
//   ./build/examples/log_tools report DIR   run the measurement pipeline
//                                           over DIR/ssl.log + DIR/x509.log
//
// `report` works on ANY logs in the supported schema — point it at your own
// Zeek output (the x509.log needs the fields listed in zeek/log_io.hpp; a
// cert_der column is used when present, otherwise the parsed fields are).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "mtlscope/core/analyzers.hpp"
#include "mtlscope/core/executor.hpp"
#include "mtlscope/core/report.hpp"
#include "mtlscope/gen/generator.hpp"
#include "mtlscope/zeek/log_io.hpp"

using namespace mtlscope;

namespace {

int export_logs(const std::filesystem::path& dir) {
  std::filesystem::create_directories(dir);
  gen::TraceGenerator generator(gen::paper_model(2'000, 200'000));
  zeek::Dataset dataset;
  generator.generate([&dataset](const tls::TlsConnection& conn) {
    dataset.add_connection(conn);
  });

  {
    std::ofstream ssl(dir / "ssl.log");
    zeek::write_ssl_log(ssl, dataset.ssl());
  }
  {
    std::ofstream x509(dir / "x509.log");
    zeek::write_x509_log(x509, dataset);
  }
  std::printf("wrote %s connections to %s/ssl.log\n",
              core::format_count(dataset.connection_count()).c_str(),
              dir.c_str());
  std::printf("wrote %s certificates to %s/x509.log\n",
              core::format_count(dataset.certificate_count()).c_str(),
              dir.c_str());
  return 0;
}

struct ReportOptions {
  std::size_t threads = 0;    // 0 → hardware concurrency
  double chunk_mb = 1.0;      // streaming chunk size (0.0625 = 64 KiB)
  bool in_memory = false;     // slurp both logs instead of streaming
};

int report(const std::filesystem::path& dir, const ReportOptions& options) {
  const std::string ssl_path = (dir / "ssl.log").string();
  const std::string x509_path = (dir / "x509.log").string();

  // run_log_files() streams both logs through the bounded-memory ingest
  // layer: mmap + record-aligned chunks + one pipeline shard per worker.
  // Results are byte-identical for any --threads or --chunk-mb value, and
  // resident memory stays O(chunk × threads) even for logs larger than
  // RAM.
  core::PipelineExecutor executor(core::PipelineConfig::campus_defaults(),
                                  options.threads);
  core::Sharded<core::PrevalenceAnalyzer> prevalence_shards(
      executor.shard_count());
  core::Sharded<core::ServicePortAnalyzer> ports_shards(executor.shard_count());
  executor.attach(prevalence_shards);
  executor.attach(ports_shards);

  std::optional<core::Pipeline> parsed;
  if (options.in_memory) {
    std::ifstream ssl_in(ssl_path, std::ios::binary);
    std::ifstream x509_in(x509_path, std::ios::binary);
    if (!ssl_in || !x509_in) {
      std::fprintf(stderr, "need %s and %s\n", ssl_path.c_str(),
                   x509_path.c_str());
      return 1;
    }
    std::ostringstream ssl_text, x509_text;
    ssl_text << ssl_in.rdbuf();
    x509_text << x509_in.rdbuf();
    zeek::LogParseError error;
    parsed = executor.run_logs(ssl_text.str(), x509_text.str(), &error);
    if (!parsed) {
      std::fprintf(stderr, "parse error: %s\n", error.message.c_str());
      return 1;
    }
  } else {
    ingest::IngestOptions ingest_options;
    ingest_options.chunk_bytes = static_cast<std::size_t>(
        options.chunk_mb > 0 ? options.chunk_mb * 1024 * 1024 : 1);
    ingest::IngestError error;
    parsed = executor.run_log_files(ssl_path, x509_path, &error,
                                    ingest_options);
    if (!parsed) {
      std::fprintf(stderr, "ingest error: %s\n", error.to_string().c_str());
      return 1;
    }
  }
  const core::Pipeline& pipeline = *parsed;
  auto prevalence = std::move(prevalence_shards).merged();
  auto ports = std::move(ports_shards).merged();

  const auto& totals = pipeline.totals();
  std::printf("connections: %s   mutual: %s (%s)   certificates: %s\n",
              core::format_count(totals.connections).c_str(),
              core::format_count(totals.mutual).c_str(),
              core::format_percent(static_cast<double>(totals.mutual),
                                   static_cast<double>(totals.connections))
                  .c_str(),
              core::format_count(pipeline.certificates().size()).c_str());

  const auto series = prevalence.series();
  if (series.size() >= 2) {
    std::printf("mutual-TLS adoption: %.2f%% (first month) -> %.2f%% (last "
                "month)\n",
                series.front().mutual_pct(), series.back().mutual_pct());
  }

  std::printf("\ntop mutual-TLS services:\n");
  core::TextTable table({"Dir", "Port", "Share", "Service"});
  for (const auto dir_kind :
       {core::Direction::kInbound, core::Direction::kOutbound}) {
    for (const auto& s : ports.top(dir_kind, true, 3)) {
      table.add_row({dir_kind == core::Direction::kInbound ? "in" : "out",
                     s.port_label, core::format_double(s.share, 1) + "%",
                     s.service});
    }
  }
  std::printf("%s", table.render().c_str());

  const auto inventory = core::analyze_cert_inventory(pipeline);
  std::printf("\ncertificates in mutual TLS: %s of %s (%s)\n",
              core::format_count(inventory.total.mutual).c_str(),
              core::format_count(inventory.total.total).c_str(),
              core::format_double(inventory.total.mutual_pct(), 1).c_str());

  const auto info =
      core::analyze_info_types(pipeline, core::CertScope::kMutual);
  const auto& cpriv = info.cells[1][1];
  std::printf("sensitive client CNs: %s personal names, %s user accounts\n",
              core::format_count(cpriv.cn[static_cast<std::size_t>(
                                     textclass::InfoType::kPersonalName)])
                  .c_str(),
              core::format_count(cpriv.cn[static_cast<std::size_t>(
                                     textclass::InfoType::kUserAccount)])
                  .c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ReportOptions options;
  for (int i = 3; i < argc; ++i) {
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      options.threads = static_cast<std::size_t>(std::atoll(argv[i] + 10));
    } else if (std::strncmp(argv[i], "--chunk-mb=", 11) == 0) {
      options.chunk_mb = std::atof(argv[i] + 11);
    } else if (std::strcmp(argv[i], "--in-memory") == 0) {
      options.in_memory = true;
    }
  }
  if (argc >= 3 && std::strcmp(argv[1], "export") == 0) {
    return export_logs(argv[2]);
  }
  if (argc >= 3 && std::strcmp(argv[1], "report") == 0) {
    return report(argv[2], options);
  }
  std::fprintf(stderr,
               "usage: %s export DIR   (write synthetic ssl.log/x509.log)\n"
               "       %s report DIR [--threads=N] [--chunk-mb=M] "
               "[--in-memory]\n"
               "         (analyze DIR/ssl.log + DIR/x509.log; streamed with "
               "bounded memory\n"
               "          unless --in-memory)\n",
               argv[0], argv[0]);
  return 2;
}
