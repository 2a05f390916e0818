// mtlscope::ingest: sources (mmap / buffered parity), record-aligned
// chunking (boundary equivalence for any chunk size), and the streaming
// executor entry points — run_log_files() must match the in-memory run
// for every thread count and chunk size, in abort and skip mode, and
// fail loudly (file + byte offset) on bad input.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "mtlscope/core/analyzers.hpp"
#include "mtlscope/core/executor.hpp"
#include "mtlscope/gen/generator.hpp"
#include "mtlscope/ingest/chunker.hpp"
#include "mtlscope/ingest/fault.hpp"
#include "mtlscope/ingest/source.hpp"
#include "mtlscope/zeek/log_io.hpp"
#include "mtlscope/zeek/parse_plan.hpp"

namespace mtlscope {
namespace {

namespace fs = std::filesystem;

/// Scratch directory for the log files this suite writes.
class IngestTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Keyed by PID so concurrent runs of this binary (e.g. the default and
    // sanitizer ctest trees) never share — and never delete — each other's
    // scratch files.
    dir_ = fs::temp_directory_path() /
           ("mtlscope_ingest_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  std::string write_file(const std::string& name, const std::string& text) {
    const fs::path path = dir_ / name;
    std::ofstream out(path, std::ios::binary);
    out << text;
    return path.string();
  }

  fs::path dir_;
};

std::string small_ssl_log() {
  return "#separator \\x09\n"
         "#fields\tts\tuid\tid.orig_h\tid.orig_p\tid.resp_h\tid.resp_p"
         "\tversion\tserver_name\testablished\tcert_chain_fuids"
         "\tclient_cert_chain_fuids\n"
         "100.000000\tC1\t10.0.0.1\t1000\t10.0.0.2\t443\tTLSv12\thost.a"
         "\tT\tFa\t(empty)\n"
         "200.000000\tC2\t10.0.0.3\t1001\t10.0.0.4\t443\tTLSv13\thost.b"
         "\tT\tFb\tFc\n"
         "300.000000\tC3\t10.0.0.5\t1002\t10.0.0.6\t8443\t-\t-"
         "\tF\t(empty)\t(empty)\n";
}

// ---------------------------------------------------------------------------
// Sources

TEST_F(IngestTest, MappedAndBufferedSourcesAgree) {
  const std::string text = small_ssl_log();
  const std::string path = write_file("ssl.log", text);

  ingest::IngestError error;
  const auto mapped = ingest::open_source(path, &error);
  ASSERT_NE(mapped, nullptr) << error.to_string();
  ingest::SourceOptions buffered_options;
  buffered_options.force_buffered = true;
  const auto buffered = ingest::open_source(path, &error, buffered_options);
  ASSERT_NE(buffered, nullptr) << error.to_string();

  ASSERT_EQ(mapped->size(), text.size());
  ASSERT_EQ(buffered->size(), text.size());
  std::string scratch_a, scratch_b;
  // Whole file, an interior window, and an out-of-range fetch.
  EXPECT_EQ(mapped->fetch(0, text.size(), scratch_a),
            buffered->fetch(0, text.size(), scratch_b));
  EXPECT_EQ(mapped->fetch(10, 40, scratch_a),
            buffered->fetch(10, 40, scratch_b));
  EXPECT_EQ(mapped->fetch(text.size() - 5, 100, scratch_a), text.substr(text.size() - 5));
  EXPECT_TRUE(mapped->fetch(text.size() + 1, 10, scratch_a).empty());
  // release() is a hint; it must not corrupt later reads.
  mapped->release(0, text.size());
  EXPECT_EQ(mapped->fetch(0, text.size(), scratch_a), text);
}

TEST_F(IngestTest, MissingFileReportsStructuredError) {
  ingest::IngestError error;
  const auto source =
      ingest::open_source((dir_ / "absent.log").string(), &error);
  EXPECT_EQ(source, nullptr);
  EXPECT_EQ(error.file, (dir_ / "absent.log").string());
  EXPECT_FALSE(error.reason.empty());
  EXPECT_NE(error.to_string().find("absent.log"), std::string::npos);
}

TEST_F(IngestTest, MemorySourceIsZeroCopy) {
  const std::string text = small_ssl_log();
  const ingest::MemorySource source(text);
  std::string scratch;
  const auto view = source.fetch(0, text.size(), scratch);
  EXPECT_EQ(view.data(), text.data());  // no copy
  EXPECT_TRUE(scratch.empty());
}

// ---------------------------------------------------------------------------
// Layout + chunking

TEST_F(IngestTest, DetectsHeaderBlock) {
  const std::string text = small_ssl_log();
  const ingest::MemorySource source(text);
  const auto layout = ingest::detect_log_layout(source);
  EXPECT_EQ(layout.header, text.substr(0, layout.body_begin));
  EXPECT_EQ(text[layout.body_begin], '1');  // first data row ("100.000000…")
  EXPECT_EQ(layout.header.substr(0, 11), "#separator ");
}

TEST_F(IngestTest, ChunksConcatenateToBodyForAnyChunkSize) {
  gen::TraceGenerator generator(gen::paper_model(2'000, 2'000'000));
  const auto dataset = generator.generate_dataset();
  const std::string text = zeek::ssl_log_to_string(dataset.ssl());
  const ingest::MemorySource source(text);
  const auto layout = ingest::detect_log_layout(source);

  for (const std::size_t chunk_bytes :
       {std::size_t{4} << 10, std::size_t{64} << 10, std::size_t{1} << 20,
        text.size()}) {
    ingest::RecordChunker chunker(source, chunk_bytes, layout.body_begin,
                                  text.size());
    std::string reassembled = layout.header;
    ingest::Chunk chunk;
    std::size_t chunks = 0;
    while (chunker.next(chunk)) {
      EXPECT_EQ(chunk.seq, chunks);
      if (!chunk.data.empty()) {
        EXPECT_EQ(chunk.data.back(), '\n') << "chunk must end on a record";
      }
      reassembled.append(chunk.view());
      ++chunks;
    }
    EXPECT_EQ(reassembled, text) << "chunk_bytes=" << chunk_bytes;
    EXPECT_GE(chunks, 1u);
  }
}

TEST_F(IngestTest, ShardRangesAreContiguousAndRecordAligned) {
  gen::TraceGenerator generator(gen::paper_model(2'000, 2'000'000));
  const std::string text =
      zeek::ssl_log_to_string(generator.generate_dataset().ssl());
  const ingest::MemorySource source(text);
  const auto layout = ingest::detect_log_layout(source);

  for (const std::size_t k : {1u, 2u, 4u, 7u}) {
    const auto ranges =
        ingest::shard_record_ranges(source, layout.body_begin, text.size(), k);
    ASSERT_EQ(ranges.size(), k);
    std::size_t prev = layout.body_begin;
    for (const auto& [begin, end] : ranges) {
      EXPECT_EQ(begin, prev);  // contiguous cover
      if (begin > layout.body_begin && begin < text.size()) {
        EXPECT_EQ(text[begin - 1], '\n');  // record-aligned
      }
      prev = end;
    }
    EXPECT_EQ(prev, text.size());
  }
}

// ---------------------------------------------------------------------------
// Robustness: CRLF, missing trailing newline, footers, degenerate logs

TEST_F(IngestTest, CrlfLogsParseIdenticallyToLf) {
  const std::string lf = small_ssl_log();
  std::string crlf;
  for (const char c : lf) {
    if (c == '\n') crlf += "\r\n";
    else crlf.push_back(c);
  }
  std::istringstream lf_in(lf), crlf_in(crlf);
  const auto a = zeek::parse_ssl_log(lf_in);
  const auto b = zeek::parse_ssl_log(crlf_in);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  ASSERT_EQ(a->size(), b->size());
  for (std::size_t i = 0; i < a->size(); ++i) {
    EXPECT_EQ((*a)[i].uid, (*b)[i].uid);
    EXPECT_EQ((*a)[i].server_name, (*b)[i].server_name);
    EXPECT_EQ((*a)[i].established, (*b)[i].established);
  }
}

TEST_F(IngestTest, FinalRecordWithoutNewlineIsNotDropped) {
  std::string text = small_ssl_log();
  text.pop_back();  // strip the trailing '\n'
  const ingest::MemorySource source(text);
  const auto layout = ingest::detect_log_layout(source);
  ingest::RecordChunker chunker(source, 64, layout.body_begin, text.size());
  std::string body;
  ingest::Chunk chunk;
  while (chunker.next(chunk)) body.append(chunk.view());
  EXPECT_EQ(layout.header + body, text);

  std::istringstream in(text);
  const auto parsed = zeek::parse_ssl_log(in);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->size(), 3u);
  EXPECT_EQ(parsed->back().uid, "C3");
}

TEST_F(IngestTest, CloseFooterMidFileLandsInBodies) {
  std::string text = small_ssl_log();
  text += "#close\t2024-05-04-00-00-00\n";
  const ingest::MemorySource source(text);
  const auto layout = ingest::detect_log_layout(source);
  // The footer is NOT part of the leading header block…
  EXPECT_EQ(layout.header.find("#close"), std::string::npos);
  // …and tiny chunks still reassemble the body bytes, footer included.
  ingest::RecordChunker chunker(source, 48, layout.body_begin, text.size());
  std::string body;
  ingest::Chunk chunk;
  while (chunker.next(chunk)) body.append(chunk.view());
  EXPECT_EQ(layout.header + body, text);
  // The parser skips '#' lines wherever they appear.
  std::istringstream in(text);
  const auto parsed = zeek::parse_ssl_log(in);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->size(), 3u);
}

TEST_F(IngestTest, HeaderOnlyAndEmptyLogsRoundTrip) {
  const std::string header_only =
      "#separator \\x09\n#fields\tts\tuid\tid.orig_h\tid.orig_p\tid.resp_h"
      "\tid.resp_p\n";
  const ingest::MemorySource source(header_only);
  const auto layout = ingest::detect_log_layout(source);
  EXPECT_EQ(layout.body_begin, header_only.size());
  ingest::RecordChunker chunker(source, 1 << 20, layout.body_begin,
                                header_only.size());
  ingest::Chunk chunk;
  ASSERT_TRUE(chunker.next(chunk));  // exactly one empty chunk
  EXPECT_TRUE(chunk.data.empty());
  EXPECT_FALSE(chunker.next(chunk));

  std::istringstream in(layout.header);
  const auto parsed = zeek::parse_ssl_log(in);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->empty());

  const ingest::MemorySource empty_source(std::string_view{});
  const auto empty_layout = ingest::detect_log_layout(empty_source);
  EXPECT_TRUE(empty_layout.header.empty());
  EXPECT_EQ(empty_layout.body_begin, 0u);
}

// ---------------------------------------------------------------------------
// Streaming executor

void expect_same_totals(const core::Pipeline& a, const core::Pipeline& b) {
  EXPECT_EQ(a.totals().connections, b.totals().connections);
  EXPECT_EQ(a.totals().established, b.totals().established);
  EXPECT_EQ(a.totals().rejected_handshakes, b.totals().rejected_handshakes);
  EXPECT_EQ(a.totals().mutual, b.totals().mutual);
  EXPECT_EQ(a.totals().inbound, b.totals().inbound);
  EXPECT_EQ(a.totals().outbound, b.totals().outbound);
  EXPECT_EQ(a.totals().tls13, b.totals().tls13);
  EXPECT_EQ(a.interception_excluded_connections(),
            b.interception_excluded_connections());
  EXPECT_EQ(a.interception_issuers(), b.interception_issuers());
}

void expect_same_certificates(const core::Pipeline& a,
                              const core::Pipeline& b) {
  const auto certs_a = a.certificates_sorted();
  const auto certs_b = b.certificates_sorted();
  ASSERT_EQ(certs_a.size(), certs_b.size());
  for (std::size_t i = 0; i < certs_a.size(); ++i) {
    EXPECT_EQ(certs_a[i]->fuid, certs_b[i]->fuid);
    EXPECT_EQ(certs_a[i]->issuer_class, certs_b[i]->issuer_class);
    EXPECT_EQ(certs_a[i]->used_in_mutual, certs_b[i]->used_in_mutual);
    EXPECT_EQ(certs_a[i]->connection_count, certs_b[i]->connection_count);
    EXPECT_EQ(certs_a[i]->first_seen, certs_b[i]->first_seen);
    EXPECT_EQ(certs_a[i]->flagged_interception, certs_b[i]->flagged_interception);
  }
}

TEST_F(IngestTest, RunLogFilesMatchesInMemoryRunForAllConfigurations) {
  gen::TraceGenerator generator(gen::paper_model(2'000, 1'000'000));
  const auto dataset = generator.generate_dataset();
  auto config = core::PipelineConfig::campus_defaults();
  config.ct = &generator.ct_database();

  const std::string ssl_text = zeek::ssl_log_to_string(dataset.ssl());
  const std::string x509_text = zeek::x509_log_to_string(dataset);
  const std::string ssl_path = write_file("ssl.log", ssl_text);
  const std::string x509_path = write_file("x509.log", x509_text);

  core::PipelineExecutor reference_executor(config, 1);
  const auto reference = reference_executor.run(dataset);

  for (const std::size_t threads : {1u, 2u, 4u}) {
    for (const std::size_t chunk_bytes :
         {std::size_t{4} << 10, std::size_t{64} << 10, ssl_text.size()}) {
      core::PipelineExecutor executor(config, threads);
      ingest::IngestOptions options;
      options.chunk_bytes = chunk_bytes;
      ingest::IngestError error;
      const auto streamed =
          executor.run_log_files(ssl_path, x509_path, &error, options);
      ASSERT_TRUE(streamed.has_value())
          << "threads=" << threads << " chunk=" << chunk_bytes << ": "
          << error.to_string();
      expect_same_totals(*streamed, reference);
      expect_same_certificates(*streamed, reference);
    }
  }
}

TEST_F(IngestTest, BufferedFallbackMatchesMmap) {
  gen::TraceGenerator generator(gen::paper_model(2'000, 2'000'000));
  const auto dataset = generator.generate_dataset();
  const std::string ssl_path =
      write_file("ssl.log", zeek::ssl_log_to_string(dataset.ssl()));
  const std::string x509_path =
      write_file("x509.log", zeek::x509_log_to_string(dataset));
  const auto config = core::PipelineConfig::campus_defaults();

  ingest::IngestOptions mmap_options;
  mmap_options.chunk_bytes = 32 << 10;
  ingest::IngestOptions buffered_options = mmap_options;
  buffered_options.force_buffered = true;

  core::PipelineExecutor executor_a(config, 2);
  core::PipelineExecutor executor_b(config, 2);
  ingest::IngestError error;
  const auto mapped =
      executor_a.run_log_files(ssl_path, x509_path, &error, mmap_options);
  ASSERT_TRUE(mapped.has_value()) << error.to_string();
  const auto buffered =
      executor_b.run_log_files(ssl_path, x509_path, &error, buffered_options);
  ASSERT_TRUE(buffered.has_value()) << error.to_string();
  expect_same_totals(*mapped, *buffered);
  expect_same_certificates(*mapped, *buffered);
}

TEST_F(IngestTest, RunLogsMemoryPathStillMatchesDatasetRun) {
  gen::TraceGenerator generator(gen::paper_model(2'000, 1'000'000));
  const auto dataset = generator.generate_dataset();
  auto config = core::PipelineConfig::campus_defaults();
  config.ct = &generator.ct_database();

  core::PipelineExecutor direct(config, 1);
  const auto reference = direct.run(dataset);

  core::PipelineExecutor from_logs(config, 4);
  zeek::LogParseError error;
  const auto parsed =
      from_logs.run_logs(zeek::ssl_log_to_string(dataset.ssl()),
                         zeek::x509_log_to_string(dataset), &error);
  ASSERT_TRUE(parsed.has_value()) << error.message;
  expect_same_totals(*parsed, reference);
  expect_same_certificates(*parsed, reference);
}

TEST_F(IngestTest, TruncatedLogReportsFileAndOffset) {
  gen::TraceGenerator generator(gen::paper_model(2'000, 2'000'000));
  const auto dataset = generator.generate_dataset();
  std::string ssl_text = zeek::ssl_log_to_string(dataset.ssl());
  // Cut mid-record so the final row is missing fields: a silent tail
  // drop here would skew every downstream statistic.
  ssl_text.resize(ssl_text.rfind('\t'));
  const std::string ssl_path = write_file("ssl.log", ssl_text);
  const std::string x509_path =
      write_file("x509.log", zeek::x509_log_to_string(dataset));

  core::PipelineExecutor executor(core::PipelineConfig::campus_defaults(), 2);
  ingest::IngestError error;
  const auto result = executor.run_log_files(ssl_path, x509_path, &error);
  EXPECT_FALSE(result.has_value());
  EXPECT_EQ(error.file, ssl_path);
  EXPECT_GT(error.byte_offset, 0u);
  EXPECT_NE(error.reason.find("field count mismatch"), std::string::npos)
      << error.reason;
}

TEST_F(IngestTest, MissingInputFileFailsRunLogFiles) {
  core::PipelineExecutor executor(core::PipelineConfig::campus_defaults(), 1);
  ingest::IngestError error;
  const auto result = executor.run_log_files(
      (dir_ / "no_ssl.log").string(), (dir_ / "no_x509.log").string(), &error);
  EXPECT_FALSE(result.has_value());
  EXPECT_EQ(error.file, (dir_ / "no_ssl.log").string());
  EXPECT_FALSE(error.reason.empty());
}

void expect_same_ledger(const core::ErrorLedger& a,
                        const core::ErrorLedger& b) {
  for (const auto role : {core::InputRole::kSsl, core::InputRole::kX509}) {
    EXPECT_EQ(a.quarantined(role), b.quarantined(role));
    EXPECT_EQ(a.rows_ok(role), b.rows_ok(role));
  }
  for (unsigned phase = 0; phase < core::kLedgerPhases; ++phase) {
    EXPECT_EQ(a.phase_count(static_cast<core::LedgerPhase>(phase)),
              b.phase_count(static_cast<core::LedgerPhase>(phase)))
        << "phase " << phase;
  }
  ASSERT_EQ(a.entries().size(), b.entries().size());
  for (std::size_t i = 0; i < a.entries().size(); ++i) {
    const auto& ea = a.entries()[i];
    const auto& eb = b.entries()[i];
    EXPECT_EQ(ea.input, eb.input) << "entry " << i;
    EXPECT_EQ(ea.byte_offset, eb.byte_offset) << "entry " << i;
    EXPECT_EQ(ea.line, eb.line) << "entry " << i;
    EXPECT_EQ(ea.reason, eb.reason) << "entry " << i;
    EXPECT_EQ(ea.digest, eb.digest) << "entry " << i;
  }
}

/// The '#' header of a Zeek log text plus its first `rows` data rows.
std::string head_rows(const std::string& text, std::size_t rows) {
  std::size_t pos = 0;
  while (pos < text.size() && (text[pos] == '#' || rows > 0)) {
    if (text[pos] != '#') --rows;
    pos = text.find('\n', pos);
    pos = pos == std::string::npos ? text.size() : pos + 1;
  }
  return text.substr(0, pos);
}

TEST_F(IngestTest, PartWindowsMatchSerialRunInBothErrorModes) {
  // 16-byte parts hold one row each, so phases A and B fold across many
  // windows (the last one ragged at 7 threads); 8 KiB parts hold many.
  auto model = gen::paper_model(50'000, 1'000'000'000);
  model.background_connections = 300;
  gen::TraceGenerator generator(std::move(model));
  const auto dataset = generator.generate_dataset();
  const std::string ssl_text =
      head_rows(zeek::ssl_log_to_string(dataset.ssl()), 2'000);
  const std::string x509_text = zeek::x509_log_to_string(dataset);
  const std::string ssl_path = write_file("ssl.log", ssl_text);
  const std::string x509_path = write_file("x509.log", x509_text);
  std::size_t ssl_bad = 0, x509_bad = 0;
  const std::string dirty_ssl = write_file(
      "dirty_ssl.log",
      ingest::corrupt_log_rows(ssl_text, 20240504, 0.02, &ssl_bad));
  const std::string dirty_x509 = write_file(
      "dirty_x509.log",
      ingest::corrupt_log_rows(x509_text, 20240505, 0.02, &x509_bad));
  ASSERT_GT(ssl_bad, 0u);
  ASSERT_GT(x509_bad, 0u);
  const auto config = core::PipelineConfig::campus_defaults();
  ingest::IngestOptions skip;
  skip.errors.on_error = ingest::ErrorPolicy::Action::kSkip;

  ingest::IngestError error;
  core::PipelineExecutor serial(config, 1);
  const auto reference = serial.run_log_files(ssl_path, x509_path, &error);
  ASSERT_TRUE(reference.has_value()) << error.to_string();
  core::ErrorLedger reference_ledger;
  const auto dirty_reference = serial.run_log_files(
      dirty_ssl, dirty_x509, &error, skip, &reference_ledger);
  ASSERT_TRUE(dirty_reference.has_value()) << error.to_string();
  EXPECT_EQ(reference_ledger.quarantined(core::InputRole::kSsl), ssl_bad);
  EXPECT_EQ(reference_ledger.quarantined(core::InputRole::kX509), x509_bad);

  for (const std::size_t chunk_bytes : {std::size_t{16}, std::size_t{8192}}) {
    ingest::IngestOptions strict;
    strict.chunk_bytes = chunk_bytes;
    ingest::IngestError serial_error;
    ASSERT_FALSE(serial.run_log_files(dirty_ssl, dirty_x509, &serial_error,
                                      strict));
    for (const std::size_t threads : {2u, 7u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " chunk=" + std::to_string(chunk_bytes));
      core::PipelineExecutor executor(config, threads);
      const auto clean =
          executor.run_log_files(ssl_path, x509_path, &error, strict);
      ASSERT_TRUE(clean.has_value()) << error.to_string();
      expect_same_totals(*clean, *reference);
      expect_same_certificates(*clean, *reference);

      // Abort mode over dirty input: the first failing part wins.
      ASSERT_FALSE(
          executor.run_log_files(dirty_ssl, dirty_x509, &error, strict));
      EXPECT_EQ(error.to_string(), serial_error.to_string());

      ingest::IngestOptions options = skip;
      options.chunk_bytes = chunk_bytes;
      core::ErrorLedger ledger;
      const auto dirty = executor.run_log_files(dirty_ssl, dirty_x509, &error,
                                                options, &ledger);
      ASSERT_TRUE(dirty.has_value()) << error.to_string();
      expect_same_totals(*dirty, *dirty_reference);
      expect_same_certificates(*dirty, *dirty_reference);
      expect_same_ledger(ledger, reference_ledger);
    }
  }
}

// ---------------------------------------------------------------------------
// Zero-copy fast path over ingest chunks (this suite runs under tsan)

TEST_F(IngestTest, FastPathOverChunksMatchesWholeFileParse) {
  gen::TraceGenerator generator(gen::paper_model(2'000, 2'000'000));
  const std::string text =
      zeek::ssl_log_to_string(generator.generate_dataset().ssl());
  const ingest::MemorySource source(text);
  const auto layout = ingest::detect_log_layout(source);
  const zeek::SslPlan plan =
      zeek::SslPlan::compile(zeek::ColumnPlan::from_header(layout.header));
  ASSERT_TRUE(plan.valid);
  ASSERT_EQ(plan.missing, nullptr);

  std::istringstream whole_in(text);
  const auto whole = zeek::parse_ssl_log(whole_in);
  ASSERT_TRUE(whole.has_value());

  for (const std::size_t chunk_bytes :
       {std::size_t{4} << 10, std::size_t{64} << 10, text.size()}) {
    ingest::RecordChunker chunker(source, chunk_bytes, layout.body_begin,
                                  text.size());
    std::vector<zeek::SslRecord> records;
    ingest::Chunk chunk;
    while (chunker.next(chunk)) {
      ASSERT_TRUE(zeek::parse_ssl_records(chunk.view(), plan, records));
    }
    ASSERT_EQ(records.size(), whole->size()) << "chunk_bytes=" << chunk_bytes;
    for (std::size_t i = 0; i < records.size(); ++i) {
      EXPECT_EQ(records[i].uid, (*whole)[i].uid);
      EXPECT_EQ(records[i].cert_chain_fuids, (*whole)[i].cert_chain_fuids);
    }
  }
}

TEST_F(IngestTest, FastPathSharesOnePlanAcrossThreads) {
  // One immutable compiled plan read concurrently by every worker — the
  // sharing pattern the executor uses; tsan checks it stays race-free.
  gen::TraceGenerator generator(gen::paper_model(2'000, 2'000'000));
  const std::string text =
      zeek::ssl_log_to_string(generator.generate_dataset().ssl());
  const ingest::MemorySource source(text);
  const auto layout = ingest::detect_log_layout(source);
  const zeek::SslPlan plan =
      zeek::SslPlan::compile(zeek::ColumnPlan::from_header(layout.header));
  ASSERT_EQ(plan.missing, nullptr);

  constexpr std::size_t kWorkers = 4;
  const auto ranges = ingest::shard_record_ranges(source, layout.body_begin,
                                                  text.size(), kWorkers);
  std::vector<std::vector<zeek::SslRecord>> per_worker(kWorkers);
  std::vector<std::thread> workers;
  std::string scratch[kWorkers];
  for (std::size_t w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      const auto [begin, end] = ranges[w];
      const std::string_view body =
          source.fetch(begin, end - begin, scratch[w]);
      ASSERT_TRUE(zeek::parse_ssl_records(body, plan, per_worker[w]));
    });
  }
  for (auto& t : workers) t.join();

  std::size_t total = 0;
  for (const auto& part : per_worker) total += part.size();
  std::istringstream whole_in(text);
  const auto whole = zeek::parse_ssl_log(whole_in);
  ASSERT_TRUE(whole.has_value());
  EXPECT_EQ(total, whole->size());
}

}  // namespace
}  // namespace mtlscope
