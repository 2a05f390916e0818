// Watch subsystem suite (DESIGN §13). The load-bearing assertions:
//
//   * TailSource follows an appended file with absolute byte/line
//     provenance, completes a partial trailing line on a later poll,
//     and survives both rotation shapes — copytruncate (same inode,
//     shrink-in-place) and rename rotation with a late writer still
//     flushing the old fd — delivering every row exactly once;
//   * the same lifecycle cases run over both framings the shared file
//     follower feeds — Zeek lines and container frames — so truncation,
//     rotation with a late writer, and restore behave alike, except
//     that a partial frame is dropped where a partial line is flushed;
//   * RowIssue coordinates from a tailed parse are absolute in the
//     file, identical whether the file was read in one pass, tailed in
//     pieces, or resumed mid-file from a checkpointed position (the
//     satellite ledger regression);
//   * WindowScheduler emissions are a pure function of the record
//     stream — the same rows fed in any batch splitting yield
//     byte-identical window, roll-up, and cumulative documents — and
//     the cumulative document equals a batch `run` over the same logs;
//   * a checkpoint round-trips exactly, rejects corruption and version
//     skew, refuses a configuration-fingerprint mismatch, and a
//     restored scheduler finishes byte-identically to one that was
//     never interrupted;
//   * the generation store (DESIGN §16) prunes to --checkpoint-keep,
//     restores the newest verifiable generation (a torn newest file
//     degrades to N-1, not a cold re-read), and still reads the legacy
//     un-suffixed layout; checkpoint saves and emission publishes under
//     injected ENOSPC return classified errors, retain the last-good
//     bytes, and count exactly one degraded episode per outage.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "mtlscope/colfmt/container.hpp"
#include "mtlscope/core/result_doc.hpp"
#include "mtlscope/crypto/sha256.hpp"
#include "mtlscope/crypto/tsig.hpp"
#include "mtlscope/experiments/options.hpp"
#include "mtlscope/experiments/registry.hpp"
#include "mtlscope/gen/generator.hpp"
#include "mtlscope/ingest/durable_io.hpp"
#include "mtlscope/trust/authority.hpp"
#include "mtlscope/trust/public_cas.hpp"
#include "mtlscope/watch/checkpoint.hpp"
#include "mtlscope/watch/container_tail.hpp"
#include "mtlscope/watch/daemon.hpp"
#include "mtlscope/watch/record_tail.hpp"
#include "mtlscope/watch/scheduler.hpp"
#include "mtlscope/watch/tail.hpp"
#include "mtlscope/x509/builder.hpp"
#include "mtlscope/zeek/log_io.hpp"

namespace mtlscope {
namespace {

namespace fs = std::filesystem;

constexpr const char* kSslHeader =
    "#separator \\x09\n"
    "#fields\tts\tuid\tid.orig_h\tid.orig_p\tid.resp_h\tid.resp_p"
    "\tversion\tserver_name\testablished\tcert_chain_fuids"
    "\tclient_cert_chain_fuids\n";

std::string ssl_row(double ts, const std::string& uid,
                    const std::string& chain = "(empty)") {
  return core::strf("%.6f\t%s\t10.0.0.1\t1000\t10.0.0.2\t443\tTLSv12\thost"
                    "\tT\t%s\t(empty)\n",
                    ts, uid.c_str(), chain.c_str());
}

/// Scratch directory keyed by PID + test name so the default and
/// sanitizer ctest trees never share files.
class WatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("mtlscope_watch_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  std::string write_file(const std::string& name, const std::string& text) {
    const fs::path path = dir_ / name;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
    return path.string();
  }

  void append_file(const std::string& path, const std::string& text) {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << text;
  }

  fs::path dir_;
};

// ---------------------------------------------------------------------------
// TailSource lifecycle

TEST_F(WatchTest, AppendGrowthKeepsAbsoluteProvenance) {
  const std::string path = write_file(
      "ssl.log", std::string(kSslHeader) + ssl_row(100, "C1") +
                     ssl_row(200, "C2"));
  watch::TailSource tail(path);

  auto batches = tail.poll();
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_TRUE(batches[0].incarnation_start);
  EXPECT_EQ(batches[0].base_offset, std::string(kSslHeader).size());
  EXPECT_EQ(batches[0].body_lines_before, 0u);
  EXPECT_EQ(batches[0].header_lines, 2u);
  EXPECT_EQ(batches[0].body, ssl_row(100, "C1") + ssl_row(200, "C2"));
  EXPECT_TRUE(tail.made_progress());

  // Nothing new: no batches, no progress.
  EXPECT_TRUE(tail.poll().empty());
  EXPECT_FALSE(tail.made_progress());

  const std::size_t before =
      std::string(kSslHeader).size() + 2 * ssl_row(100, "C1").size();
  append_file(path, ssl_row(300, "C3"));
  batches = tail.poll();
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_FALSE(batches[0].incarnation_start);
  EXPECT_EQ(batches[0].base_offset, before);
  EXPECT_EQ(batches[0].body_lines_before, 2u);
  EXPECT_EQ(batches[0].body, ssl_row(300, "C3"));
  EXPECT_EQ(tail.events().bytes_read, before + ssl_row(300, "C3").size());
}

TEST_F(WatchTest, PartialLineCompletesOnLaterPoll) {
  const std::string row = ssl_row(100, "C1");
  const std::string path = write_file("ssl.log", kSslHeader);
  watch::SslTail tail(path);
  EXPECT_EQ(tail.poll().records.size(), 0u);

  // First half of a row, no newline: carried, not parsed.
  append_file(path, row.substr(0, 20));
  auto rows = tail.poll();
  EXPECT_EQ(rows.records.size(), 0u);
  EXPECT_EQ(rows.issues.size(), 0u);

  // The rest arrives: exactly one record, no quarantine.
  append_file(path, row.substr(20));
  rows = tail.poll();
  ASSERT_EQ(rows.records.size(), 1u);
  EXPECT_EQ(rows.records[0].uid, "C1");
  EXPECT_EQ(rows.issues.size(), 0u);
}

TEST_F(WatchTest, DrainFlushesUnterminatedFinalRow) {
  const std::string row = ssl_row(100, "C1");
  const std::string path =
      write_file("ssl.log",
                 std::string(kSslHeader) + row.substr(0, row.size() - 1));
  watch::SslTail tail(path);
  EXPECT_EQ(tail.poll().records.size(), 0u);  // no newline yet
  auto rows = tail.drain();
  ASSERT_EQ(rows.records.size(), 1u);
  EXPECT_EQ(rows.records[0].uid, "C1");
}

TEST_F(WatchTest, CopytruncateRestartsAtZero) {
  const std::string path = write_file(
      "ssl.log", std::string(kSslHeader) + ssl_row(100, "C1") +
                     ssl_row(110, "C2") + ssl_row(120, "C3"));
  watch::SslTail tail(path);
  auto rows = tail.poll();
  ASSERT_EQ(rows.records.size(), 3u);

  // logrotate copytruncate: same inode, size drops below the consumed
  // offset, fresh header.
  write_file("ssl.log", std::string(kSslHeader) + ssl_row(200, "C4"));
  rows = tail.poll();
  ASSERT_EQ(rows.records.size(), 1u);
  EXPECT_EQ(rows.records[0].uid, "C4");
  EXPECT_EQ(tail.source().events().truncations, 1u);
  EXPECT_EQ(tail.source().events().rotations, 0u);
  // Provenance restarted with the new incarnation.
  EXPECT_EQ(tail.source().position().body_lines, 1u);

  // Growth after the truncation follows normally.
  append_file(path, ssl_row(210, "C5"));
  rows = tail.poll();
  ASSERT_EQ(rows.records.size(), 1u);
  EXPECT_EQ(rows.records[0].uid, "C5");
  EXPECT_EQ(tail.source().position().body_lines, 2u);
}

TEST_F(WatchTest, RenameRotationDrainsLateWriterFirst) {
  const std::string path = write_file(
      "ssl.log", std::string(kSslHeader) + ssl_row(100, "C1"));
  watch::SslTail tail(path);
  ASSERT_EQ(tail.poll().records.size(), 1u);

  // Rotate: the old inode moves away and a late writer appends one more
  // row to it — including a final line with no newline.
  fs::rename(path, path + ".1");
  append_file(path + ".1", ssl_row(150, "C2"));
  const std::string partial = ssl_row(160, "C3");
  append_file(path + ".1", partial.substr(0, partial.size() - 1));
  write_file("ssl.log", std::string(kSslHeader) + ssl_row(200, "C4"));

  // Poll 1: old fd still had growth — drained first, no switch yet.
  auto rows = tail.poll();
  ASSERT_EQ(rows.records.size(), 1u);
  EXPECT_EQ(rows.records[0].uid, "C2");
  EXPECT_EQ(tail.source().events().rotations, 0u);

  // Poll 2: old fd quiet — flush its unterminated tail as a record,
  // switch to the new inode, read its content. Every row exactly once.
  rows = tail.poll();
  ASSERT_EQ(rows.records.size(), 2u);
  EXPECT_EQ(rows.records[0].uid, "C3");
  EXPECT_EQ(rows.records[1].uid, "C4");
  EXPECT_EQ(tail.source().events().rotations, 1u);

  // The new incarnation keeps flowing.
  append_file(path, ssl_row(300, "C5"));
  rows = tail.poll();
  ASSERT_EQ(rows.records.size(), 1u);
  EXPECT_EQ(rows.records[0].uid, "C5");
}

TEST_F(WatchTest, RotationRecompilesPlanFromNewHeader) {
  // The rotated-in file permutes its columns; rows parse correctly only
  // if the plan recompiled from the new incarnation's header.
  const std::string path = write_file(
      "ssl.log", std::string(kSslHeader) + ssl_row(100, "C1"));
  watch::SslTail tail(path);
  ASSERT_EQ(tail.poll().records.size(), 1u);

  fs::rename(path, path + ".1");
  write_file("ssl.log",
             "#separator \\x09\n"
             "#fields\tuid\tts\tid.orig_h\tid.orig_p\tid.resp_h\tid.resp_p\n"
             "C9\t500.000000\t10.0.0.1\t1000\t10.0.0.2\t443\n");
  // The old fd is already quiet, so one poll both switches inodes and
  // consumes the new incarnation.
  auto rows = tail.poll();
  ASSERT_EQ(rows.records.size(), 1u);
  EXPECT_EQ(rows.records[0].uid, "C9");
  EXPECT_DOUBLE_EQ(rows.records[0].ts, 500.0);
}

// ---------------------------------------------------------------------------
// Absolute issue coordinates across a checkpoint resume (satellite fix)

TEST_F(WatchTest, IssueCoordinatesAbsoluteAcrossResume) {
  // Two malformed rows, one before and one after the resume point.
  const std::string content = std::string(kSslHeader) + ssl_row(100, "C1") +
                              "not\ta\tvalid\trow\n" + ssl_row(200, "C2") +
                              ssl_row(300, "C3") + "also\tbad\n" +
                              ssl_row(400, "C4");
  const std::string path = write_file("full.log", content);

  // Reference: one uninterrupted tailed read.
  watch::SslTail full(path);
  const auto all = full.drain();
  ASSERT_EQ(all.issues.size(), 2u);

  // Resumed read: tail the first half, checkpoint the position, re-open
  // a fresh tail from it over the grown file.
  const std::size_t split = content.size() / 2;
  const std::string grown = write_file("grown.log", content.substr(0, split));
  watch::SslTail first(grown);
  auto part = first.poll();
  const watch::TailPosition position = first.source().position();

  append_file(grown, content.substr(split));
  watch::SslTail resumed(grown);
  ASSERT_TRUE(resumed.source().restore(position));
  const auto rest = resumed.drain();

  std::vector<zeek::RowIssue> combined = part.issues;
  combined.insert(combined.end(), rest.issues.begin(), rest.issues.end());
  ASSERT_EQ(combined.size(), all.issues.size());
  for (std::size_t i = 0; i < combined.size(); ++i) {
    EXPECT_EQ(combined[i].line, all.issues[i].line) << "issue " << i;
    EXPECT_EQ(combined[i].byte_offset, all.issues[i].byte_offset)
        << "issue " << i;
    EXPECT_EQ(combined[i].digest, all.issues[i].digest) << "issue " << i;
  }
  // And the records match too (every row exactly once).
  std::size_t total = part.records.size() + rest.records.size();
  EXPECT_EQ(total, all.records.size());
}

TEST_F(WatchTest, RestoreRefusesRotatedOrShrunkFile) {
  const std::string path = write_file(
      "ssl.log", std::string(kSslHeader) + ssl_row(100, "C1"));
  watch::TailSource tail(path);
  tail.poll();
  watch::TailPosition position = tail.position();

  // Different inode at the path: restart from 0, not the stored offset.
  fs::rename(path, path + ".old");
  write_file("ssl.log", std::string(kSslHeader) + ssl_row(200, "C2"));
  watch::TailSource rotated(path);
  EXPECT_FALSE(rotated.restore(position));
  auto batches = rotated.poll();
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].body, ssl_row(200, "C2"));

  // Same inode but shorter than the stored offset: also restart.
  position.offset += 1 << 20;
  watch::TailSource shrunk(path);
  EXPECT_FALSE(shrunk.restore(position));
}

// ---------------------------------------------------------------------------
// Lifecycle parity: both framings over the shared file follower

/// Zeek line framing: a header block, then one TSV row per record.
struct LineFraming {
  using Tail = watch::SslTail;
  static constexpr bool kFlushesPartialRecord = true;

  static std::string header(const fs::path&) { return kSslHeader; }
  static std::string record(const fs::path&, double ts,
                            const std::string& uid) {
    return ssl_row(ts, uid);
  }
  static std::vector<std::string> poll(Tail& tail) {
    std::vector<std::string> uids;
    for (const auto& rec : tail.poll().records) uids.push_back(rec.uid);
    return uids;
  }
  static const watch::TailEvents& events(const Tail& tail) {
    return tail.source().events();
  }
  static watch::TailPosition position(const Tail& tail) {
    return tail.source().position();
  }
  static bool restore(Tail& tail, const watch::TailPosition& position) {
    return tail.source().restore(position);
  }
};

/// Container framing: a container header, then one ssl block frame per
/// record (no meta or footer: a container still being written).
struct ContainerFraming {
  using Tail = watch::ContainerTail;
  static constexpr bool kFlushesPartialRecord = false;

  /// A one-row container, written by the real writer.
  static std::string one_row_container(const fs::path& dir, double ts,
                                       const std::string& uid) {
    const std::string path = (dir / "frame.mtlc").string();
    colfmt::WriterOptions options;
    options.block_rows = 1;
    colfmt::ContainerWriter writer(path, options);
    zeek::SslRecord rec;
    rec.ts = static_cast<util::UnixSeconds>(ts);
    rec.uid = uid;
    rec.orig_h = "10.0.0.1";
    rec.resp_h = "10.0.0.2";
    rec.resp_p = 443;
    writer.add_ssl(rec);
    EXPECT_TRUE(writer.finish());
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  }
  static std::string header(const fs::path& dir) {
    return one_row_container(dir, 0, "H")
        .substr(0, colfmt::kContainerHeaderBytes);
  }
  static std::string record(const fs::path& dir, double ts,
                            const std::string& uid) {
    const std::string data = one_row_container(dir, ts, uid);
    std::uint64_t next = 0;
    std::string error;
    const auto frames = colfmt::scan_frames(data, 0, &next, &error);
    EXPECT_TRUE(frames && !frames->empty()) << error;
    const colfmt::FrameRef& block = frames->front();
    EXPECT_EQ(block.kind, colfmt::FrameKind::kSslBlockDelta);
    return data.substr(static_cast<std::size_t>(block.offset),
                       colfmt::kFrameHeaderBytes +
                           static_cast<std::size_t>(block.payload_len));
  }
  static std::vector<std::string> poll(Tail& tail) {
    auto rows = tail.poll();
    EXPECT_TRUE(rows.error.empty()) << rows.error;
    std::vector<std::string> uids;
    for (const auto& rec : rows.ssl) uids.push_back(rec.uid);
    return uids;
  }
  static const watch::TailEvents& events(const Tail& tail) {
    return tail.events();
  }
  static watch::TailPosition position(const Tail& tail) {
    return tail.position();
  }
  static bool restore(Tail& tail, const watch::TailPosition& position) {
    return tail.restore(position);
  }
};

template <typename Framing>
class TailLifecycleTest : public WatchTest {
 protected:
  using Tail = typename Framing::Tail;
  using Uids = std::vector<std::string>;

  std::string header() { return Framing::header(dir_); }
  std::string record(double ts, const std::string& uid) {
    return Framing::record(dir_, ts, uid);
  }
};

using TailFramings = ::testing::Types<LineFraming, ContainerFraming>;
TYPED_TEST_SUITE(TailLifecycleTest, TailFramings);

TYPED_TEST(TailLifecycleTest, CopytruncateRestartsAtZero) {
  using Uids = typename TestFixture::Uids;
  const std::string path = this->write_file(
      "ssl.log", this->header() + this->record(100, "C1") +
                     this->record(110, "C2") + this->record(120, "C3"));
  typename TestFixture::Tail tail(path);
  EXPECT_EQ(TypeParam::poll(tail), (Uids{"C1", "C2", "C3"}));

  // Same inode, shorter than what was fetched, fresh header.
  this->write_file("ssl.log", this->header() + this->record(200, "C4"));
  EXPECT_EQ(TypeParam::poll(tail), (Uids{"C4"}));
  EXPECT_EQ(TypeParam::events(tail).truncations, 1u);
  EXPECT_EQ(TypeParam::events(tail).rotations, 0u);

  this->append_file(path, this->record(210, "C5"));
  EXPECT_EQ(TypeParam::poll(tail), (Uids{"C5"}));
}

TYPED_TEST(TailLifecycleTest, RenameRotationDrainsLateWriterFirst) {
  using Uids = typename TestFixture::Uids;
  const std::string path =
      this->write_file("ssl.log", this->header() + this->record(100, "C1"));
  typename TestFixture::Tail tail(path);
  EXPECT_EQ(TypeParam::poll(tail), (Uids{"C1"}));

  // A late writer appends a complete record and then a partial one to
  // the renamed-away inode.
  fs::rename(path, path + ".1");
  this->append_file(path + ".1", this->record(150, "C2"));
  const std::string partial = this->record(160, "C3");
  this->append_file(path + ".1", partial.substr(0, partial.size() - 1));
  this->write_file("ssl.log", this->header() + this->record(200, "C4"));

  // Poll 1: the old fd still grew — its complete records come first.
  EXPECT_EQ(TypeParam::poll(tail), (Uids{"C2"}));
  EXPECT_EQ(TypeParam::events(tail).rotations, 0u);

  // Poll 2: the old fd is quiet — switch and read the new inode. A
  // partial line is flushed as a final record; a partial frame is a
  // torn write and is dropped.
  const Uids expected = TypeParam::kFlushesPartialRecord ? Uids{"C3", "C4"}
                                                         : Uids{"C4"};
  EXPECT_EQ(TypeParam::poll(tail), expected);
  EXPECT_EQ(TypeParam::events(tail).rotations, 1u);

  this->append_file(path, this->record(300, "C5"));
  EXPECT_EQ(TypeParam::poll(tail), (Uids{"C5"}));
}

TYPED_TEST(TailLifecycleTest, RestoreRefusesRotatedOrShrunkFile) {
  using Uids = typename TestFixture::Uids;
  const std::string path =
      this->write_file("ssl.log", this->header() + this->record(100, "C1"));
  watch::TailPosition position;
  {
    typename TestFixture::Tail tail(path);
    EXPECT_EQ(TypeParam::poll(tail), (Uids{"C1"}));
    position = TypeParam::position(tail);
  }

  // Same inode, at least as long: the position applies and nothing is
  // read twice.
  this->append_file(path, this->record(110, "C2"));
  {
    typename TestFixture::Tail resumed(path);
    EXPECT_TRUE(TypeParam::restore(resumed, position));
    EXPECT_EQ(TypeParam::poll(resumed), (Uids{"C2"}));
  }

  // Different inode at the path: restart from 0, not the stored offset.
  fs::rename(path, path + ".old");
  this->write_file("ssl.log", this->header() + this->record(200, "C3"));
  typename TestFixture::Tail rotated(path);
  EXPECT_FALSE(TypeParam::restore(rotated, position));
  EXPECT_EQ(TypeParam::poll(rotated), (Uids{"C3"}));

  // Same inode but shorter than the stored position: also restart.
  watch::TailPosition shrunk_position = TypeParam::position(rotated);
  shrunk_position.offset += 1 << 20;
  typename TestFixture::Tail shrunk(path);
  EXPECT_FALSE(TypeParam::restore(shrunk, shrunk_position));
  EXPECT_EQ(TypeParam::poll(shrunk), (Uids{"C3"}));
}

// ---------------------------------------------------------------------------
// WindowScheduler determinism and batch identity

struct Captured {
  std::vector<watch::Emission> emissions;
  watch::EmitFn fn() {
    return [this](const watch::Emission& e) { emissions.push_back(e); };
  }
};

/// Synthetic logs rendered to files. The generator writes ssl rows unit
/// by unit, each unit spanning the whole study, so by default the rows
/// are sorted by time (stably) before rendering: windows then close as
/// the rows arrive, as on a live monitor. In the generator's own order
/// almost every row lands behind the watermark and is folded late. The
/// records are read back through the typed tails, so the scheduler sees
/// exactly what a watch over these files would see.
struct LogPair {
  std::string ssl_path, x509_path;
  std::vector<zeek::SslRecord> ssl;
  std::vector<zeek::X509Record> x509;
};

class WatchSchedulerTest : public WatchTest {
 public:
  std::string ssl_path(const std::string& text) {
    return write_file("ssl.log", text);
  }
  std::string x509_path(const std::string& text) {
    return write_file("x509.log", text);
  }

  watch::WatchConfig scheduler_config(const std::string& ssl,
                                      const std::string& x509,
                                      std::int64_t window_seconds) {
    watch::WatchConfig config;
    config.window_seconds = window_seconds;
    config.rollup_windows = 4;
    config.experiments = {"table1", "fig1"};
    config.run.ssl_log = ssl;
    config.run.x509_log = x509;
    config.run.stable_output = true;
    config.run.threads = 1;
    return config;
  }

  LogPair generated_logs(double cert_scale, double conn_scale,
                         bool time_sorted = true) {
    gen::TraceGenerator generator(gen::paper_model(cert_scale, conn_scale));
    auto dataset = generator.generate_dataset();
    if (time_sorted) {
      std::stable_sort(
          dataset.ssl().begin(), dataset.ssl().end(),
          [](const zeek::SslRecord& a, const zeek::SslRecord& b) {
            return a.ts < b.ts;
          });
    }
    LogPair out;
    out.ssl_path = ssl_path(zeek::ssl_log_to_string(dataset.ssl()));
    out.x509_path = x509_path(zeek::x509_log_to_string(dataset));
    // Polls cap at kMaxReadPerPoll, so loop until the backlog is gone
    // before the final drain (exactly the daemon's catch-up behaviour).
    watch::SslTail ssl_tail(out.ssl_path);
    do {
      auto rows = ssl_tail.poll();
      out.ssl.insert(out.ssl.end(), rows.records.begin(), rows.records.end());
    } while (ssl_tail.source().made_progress());
    watch::X509Tail x509_tail(out.x509_path);
    do {
      auto rows = x509_tail.poll();
      out.x509.insert(out.x509.end(), rows.records.begin(),
                      rows.records.end());
    } while (x509_tail.source().made_progress());
    return out;
  }
};

/// Feeds the rows in `ssl_batch` / `x509_batch` sized slices, x509
/// slightly ahead (the daemon polls x509 first). No drain.
void feed_no_drain(watch::WindowScheduler& scheduler, const LogPair& logs,
                   std::size_t ssl_batch, std::size_t x509_batch) {
  std::size_t si = 0, xi = 0;
  while (si < logs.ssl.size() || xi < logs.x509.size()) {
    if (xi < logs.x509.size()) {
      const std::size_t n = std::min(x509_batch, logs.x509.size() - xi);
      scheduler.add_x509({logs.x509.begin() + xi, logs.x509.begin() + xi + n});
      xi += n;
    }
    if (si < logs.ssl.size()) {
      const std::size_t n = std::min(ssl_batch, logs.ssl.size() - si);
      scheduler.add_ssl({logs.ssl.begin() + si, logs.ssl.begin() + si + n});
      si += n;
    }
  }
}

void feed(watch::WindowScheduler& scheduler, const LogPair& logs,
          std::size_t ssl_batch, std::size_t x509_batch) {
  feed_no_drain(scheduler, logs, ssl_batch, x509_batch);
  scheduler.drain();
}

/// Windows the generated logs close before a drain: the study spans about
/// a hundred weeks, so with time-ordered rows most weekly windows close
/// while the stream is fed, and what the tests compare is folded state,
/// not one late fold at the drain.
constexpr std::uint64_t kClosedBeforeDrain = 50;

/// feed(), asserting that windows closed as the rows arrived.
void feed_closing_windows(watch::WindowScheduler& scheduler,
                          const LogPair& logs, std::size_t ssl_batch,
                          std::size_t x509_batch) {
  feed_no_drain(scheduler, logs, ssl_batch, x509_batch);
  EXPECT_GT(scheduler.status().windows_emitted, kClosedBeforeDrain);
  EXPECT_EQ(scheduler.status().late, 0u);
  scheduler.drain();
}

TEST_F(WatchSchedulerTest, EmissionsIndependentOfBatchSplitting) {
  const LogPair logs = generated_logs(8'000, 800'000);
  ASSERT_GT(logs.ssl.size(), 100u);
  const auto config =
      scheduler_config(logs.ssl_path, logs.x509_path, 7 * 24 * 3600);

  Captured a, b, c;
  {
    watch::WindowScheduler s(config, a.fn());
    // One big batch.
    feed_closing_windows(s, logs, logs.ssl.size(), logs.x509.size());
  }
  {
    watch::WindowScheduler s(config, b.fn());
    feed_closing_windows(s, logs, 7, 3);  // dribble
  }
  {
    watch::WindowScheduler s(config, c.fn());
    feed_closing_windows(s, logs, 1, 1);  // record-at-a-time
  }

  ASSERT_EQ(a.emissions.size(), b.emissions.size());
  ASSERT_EQ(a.emissions.size(), c.emissions.size());
  ASSERT_GT(a.emissions.size(), 2u);  // at least one window + cumulative
  for (std::size_t i = 0; i < a.emissions.size(); ++i) {
    EXPECT_EQ(a.emissions[i].kind, b.emissions[i].kind) << i;
    EXPECT_EQ(a.emissions[i].start_ts, b.emissions[i].start_ts) << i;
    EXPECT_EQ(a.emissions[i].envelope, b.emissions[i].envelope) << i;
    EXPECT_EQ(a.emissions[i].envelope, c.emissions[i].envelope) << i;
  }
}

TEST_F(WatchSchedulerTest, CumulativeMatchesBatchRun) {
  const LogPair logs = generated_logs(4'000, 400'000);
  const auto config =
      scheduler_config(logs.ssl_path, logs.x509_path, 7 * 24 * 3600);

  Captured captured;
  watch::WindowScheduler scheduler(config, captured.fn());
  feed(scheduler, logs, 11, 5);

  ASSERT_FALSE(captured.emissions.empty());
  const auto& last = captured.emissions.back();
  ASSERT_EQ(last.kind, watch::Emission::Kind::kCumulative);

  const auto docs =
      experiments::run_experiments(config.experiments, config.run);
  const std::string batch = core::render_json_envelope(docs, false);
  EXPECT_EQ(last.envelope, batch);
}

// The daemon's tails always quarantine malformed rows, so its documents
// label the policy `skip`, and its cumulative document equals a batch
// `run --on-error=skip` over the same logs, garbage row included.
TEST_F(WatchSchedulerTest, DaemonLabelsItsPolicySkip) {
  const LogPair logs = generated_logs(8'000, 800'000);
  std::string ssl;
  {
    std::ifstream in(logs.ssl_path, std::ios::binary);
    ssl.assign(std::istreambuf_iterator<char>(in), {});
  }
  ssl.insert(ssl.find('\n', ssl.size() / 2) + 1, "not a row\n");
  write_file("ssl.log", ssl);

  watch::WatchOptions options;
  options.run.ssl_log = logs.ssl_path;
  options.run.x509_log = logs.x509_path;
  options.run.stable_output = true;
  options.run.threads = 1;
  options.experiments = {"table1", "fig1"};
  options.out_dir = (dir_ / "out").string();
  options.window_seconds = 7 * 24 * 3600;
  options.poll_ms = 10;
  options.exit_idle_ms = 100;
  ASSERT_EQ(watch::run_watch(options), 0);
  std::ifstream in(dir_ / "out" / "cumulative.json", std::ios::binary);
  const std::string cumulative(std::istreambuf_iterator<char>(in), {});
  EXPECT_NE(cumulative.find("\"data_quality\":{\"policy\":\"skip\""),
            std::string::npos);

  experiments::RunOptions batch = options.run;
  batch.errors.on_error = ingest::ErrorPolicy::Action::kSkip;
  const auto docs = experiments::run_experiments(options.experiments, batch);
  EXPECT_EQ(cumulative, core::render_json_envelope(docs, false));
}

TEST_F(WatchSchedulerTest, HeldRecordsReleaseWhenCertificatesArrive) {
  const std::string ssl = ssl_path(std::string(kSslHeader));
  const std::string x509 = x509_path("");
  auto config = scheduler_config(ssl, x509, 3600);

  Captured captured;
  watch::WindowScheduler scheduler(config, captured.fn());

  // A record citing a cert that has not arrived is held...
  zeek::SslRecord record;
  record.ts = 100;
  record.uid = "C1";
  record.cert_chain_fuids = {"Fmissing"};
  scheduler.add_ssl({record});
  EXPECT_EQ(scheduler.held(), 1u);

  // ...and a later record queues strictly behind it, even without deps.
  zeek::SslRecord record2;
  record2.ts = 101;
  record2.uid = "C2";
  scheduler.add_ssl({record2});
  EXPECT_EQ(scheduler.held(), 2u);

  // The certificate arrives: both release in stream order.
  zeek::X509Record cert;
  cert.fuid = "Fmissing";
  scheduler.add_x509({cert});
  EXPECT_EQ(scheduler.held(), 0u);
  EXPECT_EQ(scheduler.status().ssl_records, 2u);
}

// ---------------------------------------------------------------------------
// Checkpoint format

TEST_F(WatchSchedulerTest, CheckpointRoundTripsExactly) {
  const LogPair logs = generated_logs(8'000, 800'000);
  const auto config =
      scheduler_config(logs.ssl_path, logs.x509_path, 7 * 24 * 3600);

  Captured captured;
  watch::WindowScheduler scheduler(config, captured.fn());
  // Feed half the stream so there is a live watermark, open windows,
  // and (likely) cumulative state.
  LogPair half = logs;
  half.ssl.resize(logs.ssl.size() / 2);
  std::size_t si = 0;
  scheduler.add_x509(std::vector<zeek::X509Record>(logs.x509));
  while (si < half.ssl.size()) {
    const std::size_t n = std::min<std::size_t>(13, half.ssl.size() - si);
    scheduler.add_ssl({half.ssl.begin() + si, half.ssl.begin() + si + n});
    si += n;
  }
  // Half the study's weeks closed: the checkpoint carries folded state.
  EXPECT_GT(scheduler.status().windows_emitted, kClosedBeforeDrain / 2);

  watch::WatchCheckpoint ckpt;
  scheduler.save(ckpt);
  ckpt.ssl_tail.inode = 42;
  ckpt.ssl_tail.offset = 1234;
  ckpt.ssl_tail.carry = "partial\tline";
  const std::string bytes = watch::serialize_watch_checkpoint(ckpt);

  std::string error;
  auto parsed = watch::parse_watch_checkpoint(bytes, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  // Exact round trip: re-serializing the parse reproduces the bytes.
  EXPECT_EQ(watch::serialize_watch_checkpoint(*parsed), bytes);
  EXPECT_EQ(parsed->ssl_tail.inode, 42u);
  EXPECT_EQ(parsed->ssl_tail.carry, "partial\tline");
  EXPECT_EQ(parsed->ssl_records_seen, half.ssl.size());

  // Every corrupted byte is caught (digest trailer).
  std::string corrupt = bytes;
  corrupt[corrupt.size() / 2] ^= 0x20;
  EXPECT_FALSE(watch::parse_watch_checkpoint(corrupt, &error).has_value());
  EXPECT_FALSE(error.empty());

  // Truncation is a structured error, not a crash.
  EXPECT_FALSE(watch::parse_watch_checkpoint(
                   std::string_view(bytes).substr(0, bytes.size() / 3), &error)
                   .has_value());

  // Version skew hard-rejects (bytes 8..11 hold the format version).
  std::string skewed = bytes;
  skewed[8] = static_cast<char>(watch::kWatchFormatVersion + 1);
  EXPECT_FALSE(watch::parse_watch_checkpoint(skewed, &error).has_value());
  EXPECT_NE(error.find("version"), std::string::npos);
}

// A re-sealed checkpoint can claim any entry count: 2^60 x509 records or
// buffered ssl rows must end in a structured error, not a std::length_error
// or bad_alloc from the reservation ahead of the entry loop.
TEST(WatchCheckpointFormat, HugeEntryCountWithValidDigestFailsCleanly) {
  const std::string bytes =
      watch::serialize_watch_checkpoint(watch::WatchCheckpoint{});
  // The file ends with the x509_seen section (one u64 count), the
  // ssl_buffers section (three u64 counts) and the 32-byte digest.
  const std::size_t digest_at = bytes.size() - 32;
  const std::size_t ssl_rows_at = digest_at - 24;
  const std::size_t x509_seen_at = ssl_rows_at - 12 - 8;
  for (const std::size_t at : {x509_seen_at, ssl_rows_at}) {
    std::string hostile = bytes;
    for (int i = 0; i < 8; ++i) {
      ASSERT_EQ(hostile[at + i], '\0') << "layout drifted at " << at;
      hostile[at + i] = static_cast<char>((std::uint64_t{1} << 60) >> (8 * i));
    }
    const auto digest =
        crypto::Sha256::hash(std::string_view(hostile.data(), digest_at));
    hostile.replace(digest_at, digest.size(),
                    reinterpret_cast<const char*>(digest.data()),
                    digest.size());
    std::string error;
    EXPECT_FALSE(watch::parse_watch_checkpoint(hostile, &error).has_value());
    EXPECT_NE(error.find("truncated"), std::string::npos) << error;
  }
}

TEST_F(WatchSchedulerTest, RestoreRefusesConfigMismatch) {
  const std::string ssl = ssl_path(std::string(kSslHeader));
  const std::string x509 = x509_path("");
  const auto config = scheduler_config(ssl, x509, 3600);

  Captured captured;
  watch::WindowScheduler scheduler(config, captured.fn());
  watch::WatchCheckpoint ckpt;
  scheduler.save(ckpt);

  // Same config restores fine.
  watch::WindowScheduler same(config, captured.fn());
  std::string error;
  EXPECT_TRUE(same.restore(ckpt, &error)) << error;

  // Different window geometry / experiments / seed are refused.
  auto other = scheduler_config(ssl, x509, 7200);
  watch::WindowScheduler wrong_window(other, captured.fn());
  EXPECT_FALSE(wrong_window.restore(ckpt, &error));
  EXPECT_FALSE(error.empty());

  auto fewer = config;
  fewer.experiments = {"table1"};
  watch::WindowScheduler wrong_experiments(fewer, captured.fn());
  EXPECT_FALSE(wrong_experiments.restore(ckpt, &error));

  auto reseeded = config;
  reseeded.run.seed = 7;
  watch::WindowScheduler wrong_seed(reseeded, captured.fn());
  EXPECT_FALSE(wrong_seed.restore(ckpt, &error));
}

/// An interrupted run: feeds `before`, checkpoints, throws the scheduler
/// away, restores into a fresh one and feeds `after`, capturing both
/// schedulers' emissions in `out`. Returns the checkpoint.
watch::WatchCheckpoint interrupted_feed(const watch::WatchConfig& config,
                                        const LogPair& before,
                                        const LogPair& after, Captured& out) {
  watch::WatchCheckpoint ckpt;
  {
    watch::WindowScheduler s(config, out.fn());
    feed_no_drain(s, before, 9, 4);
    s.save(ckpt);
  }
  watch::WindowScheduler s(config, out.fn());
  std::string error;
  EXPECT_TRUE(s.restore(ckpt, &error)) << error;
  EXPECT_EQ(s.held(), ckpt.pending_rows.size());
  EXPECT_EQ(s.status().late, ckpt.late_rows.size());
  feed(s, after, 9, 4);
  return ckpt;
}

/// Splits `logs` for an interrupted run after 60% of the ssl rows. Before
/// the checkpoint go the x509 rows of the certificates that prefix cites,
/// except those first cited in its last twentieth: the rows from the
/// first such citation on are held, so the checkpoint carries held rows.
/// (A plain prefix of x509.log, which is in fuid order, misses
/// certificates cited early, so every row is held and no window closes.)
std::pair<LogPair, LogPair> split_for_restore(const LogPair& logs) {
  const std::size_t cut = logs.ssl.size() * 6 / 10;
  std::set<std::string_view> cited;
  for (std::size_t i = 0; i < cut - cut / 20; ++i) {
    for (const auto* chain : {&logs.ssl[i].cert_chain_fuids,
                              &logs.ssl[i].client_cert_chain_fuids}) {
      for (const colfmt::Str fuid : *chain) cited.insert(fuid.view());
    }
  }
  LogPair before, after;
  before.ssl.assign(logs.ssl.begin(), logs.ssl.begin() + cut);
  after.ssl.assign(logs.ssl.begin() + cut, logs.ssl.end());
  for (const auto& row : logs.x509) {
    (cited.count(row.fuid.view()) != 0 ? before : after).x509.push_back(row);
  }
  return {std::move(before), std::move(after)};
}

/// The resumed run must re-emit nothing extra and end byte-identical.
void expect_same_emissions(const Captured& reference,
                           const Captured& resumed) {
  ASSERT_EQ(reference.emissions.size(), resumed.emissions.size());
  for (std::size_t i = 0; i < reference.emissions.size(); ++i) {
    EXPECT_EQ(reference.emissions[i].envelope, resumed.emissions[i].envelope)
        << "emission " << i;
  }
}

TEST_F(WatchSchedulerTest, RestoredSchedulerFinishesIdentically) {
  const LogPair logs = generated_logs(8'000, 800'000);
  const auto config =
      scheduler_config(logs.ssl_path, logs.x509_path, 7 * 24 * 3600);

  // Reference: uninterrupted run.
  Captured reference;
  {
    watch::WindowScheduler s(config, reference.fn());
    feed_closing_windows(s, logs, 9, 4);
  }

  const auto [before, after] = split_for_restore(logs);
  Captured resumed;
  const auto ckpt = interrupted_feed(config, before, after, resumed);
  EXPECT_GT(ckpt.windows_emitted, kClosedBeforeDrain / 2);
  EXPECT_FALSE(ckpt.pending_rows.empty());
  expect_same_emissions(reference, resumed);
}

// The generator's own order: most rows arrive behind the watermark, are
// buffered late and folded at the drain, so a checkpoint carries them.
TEST_F(WatchSchedulerTest, RestoredSchedulerFoldsLateRowsIdentically) {
  const LogPair logs =
      generated_logs(8'000, 800'000, /*time_sorted=*/false);
  const auto config =
      scheduler_config(logs.ssl_path, logs.x509_path, 7 * 24 * 3600);

  Captured reference;
  {
    watch::WindowScheduler s(config, reference.fn());
    feed_no_drain(s, logs, 9, 4);
    EXPECT_GT(s.status().late, logs.ssl.size() / 2);
    s.drain();
  }

  const auto [before, after] = split_for_restore(logs);
  Captured resumed;
  const auto ckpt = interrupted_feed(config, before, after, resumed);
  EXPECT_FALSE(ckpt.late_rows.empty());
  expect_same_emissions(reference, resumed);
}

// ---------------------------------------------------------------------------
// Window isolation. One executor serves every fold of a scheduler, so
// what it keeps between folds (the Enricher's certificate memo) must never
// reach a document: a window's document equals the one a fresh scheduler
// emits when fed every x509 row and only that window's ssl rows.

/// The first window document of a fresh scheduler fed `x509` then `ssl`.
std::string window_alone(const watch::WatchConfig& config,
                         const std::vector<zeek::X509Record>& x509,
                         const std::vector<zeek::SslRecord>& ssl) {
  Captured captured;
  watch::WindowScheduler scheduler(config, captured.fn());
  scheduler.add_x509(x509);
  scheduler.add_ssl(ssl);
  scheduler.drain();
  if (captured.emissions.empty() ||
      captured.emissions.front().kind != watch::Emission::Kind::kWindow) {
    ADD_FAILURE() << "no window document";
    return "";
  }
  return captured.emissions.front().envelope;
}

std::vector<watch::Emission> windows_of(const Captured& captured) {
  std::vector<watch::Emission> out;
  for (const auto& emission : captured.emissions) {
    if (emission.kind == watch::Emission::Kind::kWindow) {
      out.push_back(emission);
    }
  }
  return out;
}

TEST_F(WatchSchedulerTest, WindowDocumentsDependOnlyOnTheirOwnRows) {
  // Time-sorted (generated_logs), so every row lands in a published
  // window (none late).
  const LogPair logs = generated_logs(8'000, 800'000);
  const std::int64_t width = 7 * 24 * 3600;
  auto config = scheduler_config(logs.ssl_path, logs.x509_path, width);
  // `interception` reports the registry's size, so a certificate left
  // over from an earlier window shows in the document.
  config.experiments.push_back("interception");
  std::map<std::int64_t, std::vector<zeek::SslRecord>> rows_of;
  for (const auto& row : logs.ssl) {
    ASSERT_GE(row.ts, 0);
    rows_of[row.ts / width * width].push_back(row);
  }

  Captured full;
  watch::WindowScheduler scheduler(config, full.fn());
  feed_no_drain(scheduler, logs, 64, logs.x509.size());
  ASSERT_EQ(scheduler.status().late, 0u);
  scheduler.drain();

  const auto windows = windows_of(full);
  ASSERT_EQ(windows.size(), rows_of.size());
  ASSERT_GT(windows.size(), 50u);
  for (const auto& window : windows) {
    ASSERT_TRUE(rows_of.count(window.start_ts)) << window.start_ts;
    EXPECT_EQ(window_alone(config, logs.x509, rows_of.at(window.start_ts)),
              window.envelope)
        << "window " << window.start_ts;
  }
}

// The generated logs have no leaf that is upgraded in one window and seen
// without its intermediate in a later one, and no certificate logged
// under two fuids, so this pair of windows is built by hand. FL's issuer
// is private and FP carries a public intermediate's DN: window A's
// established [FL, FP] makes FL public (§3.2.1), and window B, which
// shows FL alone, must not inherit that. FD1 and FD2 are one
// certificate's bytes under a fuid per window, as Zeek logs a
// certificate once per connection: the executor's DER-keyed memo hits
// in window B, and only what the bytes determine may carry over.
TEST_F(WatchSchedulerTest, ChainUpgradeStaysInsideItsWindow) {
  const auto config = scheduler_config(ssl_path(std::string(kSslHeader)),
                                       x509_path(""), 3600);
  const std::string public_dn = trust::public_pki()
                                    .find("lets-encrypt")
                                    ->intermediate.dn()
                                    .to_string();
  const auto cert = [](const char* fuid, const std::string& issuer) {
    zeek::X509Record record;
    record.fuid = fuid;
    record.subject = std::string("CN=") + fuid;
    record.issuer = issuer;
    return record;
  };
  const auto row = [](std::int64_t ts, std::vector<std::string> chain) {
    zeek::SslRecord record;
    record.ts = ts;
    record.uid = "C" + std::to_string(ts);
    record.orig_h = "10.1.2.3";
    record.orig_p = 50000;
    record.resp_h = "93.184.216.34";
    record.resp_p = 443;
    record.established = true;
    for (const auto& fuid : chain) record.cert_chain_fuids.emplace_back(fuid);
    return record;
  };
  x509::DistinguishedName ca_dn;
  ca_dn.add_org("Watch Test Org").add_cn("Watch Test CA");
  const auto ca =
      trust::CertificateAuthority::make_root(ca_dn, 0, 2'000'000'000);
  x509::DistinguishedName device_dn;
  device_dn.add_cn("device");
  x509::CertificateBuilder builder;
  builder.serial_from_label("watch:device")
      .subject(device_dn)
      .validity(0, 2'000'000'000)
      .public_key(crypto::TsigKey::derive("device").key);
  const x509::Certificate device = ca.issue(builder);

  const std::vector<zeek::X509Record> certs = {
      cert("FL", "CN=Lab CA,O=Example Lab,C=US"), cert("FP", public_dn),
      zeek::to_x509_record(device, colfmt::Str("FD1")),
      zeek::to_x509_record(device, colfmt::Str("FD2"))};
  const std::vector<zeek::SslRecord> window_a = {row(100, {"FL", "FP"}),
                                                 row(101, {"FD1"})};
  const std::vector<zeek::SslRecord> window_b = {row(3700, {"FL"}),
                                                 row(3701, {"FD2"})};

  Captured full;
  {
    watch::WindowScheduler scheduler(config, full.fn());
    scheduler.add_x509(certs);
    scheduler.add_ssl(window_a);
    scheduler.add_ssl(window_b);
    scheduler.drain();
  }
  const auto windows = windows_of(full);
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_EQ(windows[0].envelope, window_alone(config, certs, window_a));
  EXPECT_EQ(windows[1].envelope, window_alone(config, certs, window_b));
  // The document tells the classes apart, so a leaked upgrade would show:
  // with FL issued publicly, window B reads differently.
  std::vector<zeek::X509Record> fl_public = certs;
  fl_public[0] = cert("FL", public_dn);
  EXPECT_NE(windows[1].envelope, window_alone(config, fl_public, window_b));
}

// ---------------------------------------------------------------------------
// Durable checkpoint store + degraded publication (DESIGN §16)

watch::WatchCheckpoint tagged_checkpoint(std::uint64_t tag) {
  watch::WatchCheckpoint ckpt;
  ckpt.seed = tag;  // distinguishes generations after a restore
  ckpt.ssl_records_seen = tag;
  return ckpt;
}

TEST_F(WatchTest, CheckpointStoreWritesGenerationsAndPrunes) {
  watch::CheckpointStore store(dir_.string(), 3);
  EXPECT_FALSE(store.has_any());
  EXPECT_EQ(store.next_generation(), 1u);
  for (std::uint64_t g = 1; g <= 5; ++g) {
    const auto saved = store.save(tagged_checkpoint(g));
    ASSERT_TRUE(saved.ok) << saved.message;
  }
  // Only the newest 3 generations survive the prune.
  const auto gens = watch::CheckpointStore::list(dir_.string());
  ASSERT_EQ(gens.size(), 3u);
  EXPECT_EQ(gens.front().first, 3u);
  EXPECT_EQ(gens.back().first, 5u);
  EXPECT_EQ(store.next_generation(), 6u);

  std::uint64_t generation = 0;
  std::uint32_t skipped = 0;
  std::string error;
  auto loaded = store.load(&error, &generation, &skipped);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(generation, 5u);
  EXPECT_EQ(skipped, 0u);
  EXPECT_EQ(loaded->seed, 5u);
}

TEST_F(WatchTest, CheckpointStoreTornNewestRestoresPrevious) {
  watch::CheckpointStore store(dir_.string(), 3);
  for (std::uint64_t g = 1; g <= 3; ++g) {
    ASSERT_TRUE(store.save(tagged_checkpoint(g)).ok);
  }
  // Tear generation 3 the way a torn rename would: keep a prefix only.
  const std::string newest = (dir_ / "watch.ckpt.3").string();
  const std::string bytes = [&] {
    std::ifstream in(newest, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  }();
  ASSERT_GT(bytes.size(), 2u);
  std::ofstream(newest, std::ios::binary | std::ios::trunc)
      << bytes.substr(0, bytes.size() / 2);

  std::uint64_t generation = 0;
  std::uint32_t skipped = 0;
  std::string error;
  watch::CheckpointStore reopened(dir_.string(), 3);
  auto loaded = reopened.load(&error, &generation, &skipped);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(generation, 2u);  // degraded to N-1, not a cold re-read
  EXPECT_EQ(skipped, 1u);
  EXPECT_EQ(loaded->seed, 2u);
  // The torn file still occupied its generation number: the next save
  // moves past it rather than silently rewriting a bad slot readers may
  // have seen.
  EXPECT_EQ(reopened.next_generation(), 4u);
}

TEST_F(WatchTest, CheckpointStoreReadsLegacyUnsuffixedFile) {
  const auto saved = watch::save_watch_checkpoint(
      (dir_ / "watch.ckpt").string(), tagged_checkpoint(9));
  ASSERT_TRUE(saved.ok) << saved.message;
  watch::CheckpointStore store(dir_.string(), 3);
  EXPECT_TRUE(store.has_any());
  EXPECT_EQ(store.next_generation(), 1u);  // legacy file is generation 0
  std::uint64_t generation = 99;
  auto loaded = store.load(nullptr, &generation, nullptr);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(generation, 0u);
  EXPECT_EQ(loaded->seed, 9u);
}

TEST_F(WatchTest, CheckpointStoreAllGenerationsBadReportsNewestError) {
  watch::CheckpointStore store(dir_.string(), 2);
  ASSERT_TRUE(store.save(tagged_checkpoint(1)).ok);
  std::ofstream((dir_ / "watch.ckpt.1").string(),
                std::ios::binary | std::ios::trunc)
      << "garbage";
  std::string error;
  std::uint32_t skipped = 0;
  EXPECT_FALSE(store.load(&error, nullptr, &skipped).has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(skipped, 1u);
}

// A checkpoint re-sealed over an out-of-range ledger byte is refused on
// restore: the store steps back a generation instead of handing
// ErrorLedger::finalize() an input role it would index with.
TEST_F(WatchTest, CheckpointStoreRefusesOutOfRangeLedgerValue) {
  const auto with_entry = [](core::InputRole role) {
    watch::WatchCheckpoint ckpt = tagged_checkpoint(2);
    ckpt.ledger.quarantine(core::LedgerPhase::kUpgrades,
                           {role, 10, 2, 5, "bad column count", "abcd"});
    return watch::serialize_watch_checkpoint(ckpt);
  };
  // The two encodings first differ at the entry's input byte.
  std::string bytes = with_entry(core::InputRole::kSsl);
  const std::string other = with_entry(core::InputRole::kX509);
  ASSERT_EQ(bytes.size(), other.size());
  const auto at = static_cast<std::size_t>(
      std::mismatch(bytes.begin(), bytes.end(), other.begin()).first -
      bytes.begin());
  bytes[at] = static_cast<char>(200);
  const std::size_t digest_at = bytes.size() - crypto::Sha256::kDigestSize;
  const auto digest =
      crypto::Sha256::hash(std::string_view(bytes.data(), digest_at));
  bytes.replace(digest_at, digest.size(),
                reinterpret_cast<const char*>(digest.data()), digest.size());
  std::string error;
  EXPECT_FALSE(watch::parse_watch_checkpoint(bytes, &error).has_value());
  EXPECT_EQ(error,
            "bad value 200 in state field 'ledger.entries.input' (enum of 2 "
            "values)");

  watch::CheckpointStore store(dir_.string(), 3);
  ASSERT_TRUE(store.save(tagged_checkpoint(1)).ok);
  ASSERT_TRUE(store.save(tagged_checkpoint(2)).ok);
  std::ofstream((dir_ / "watch.ckpt.2").string(),
                std::ios::binary | std::ios::trunc)
      << bytes;
  std::uint64_t generation = 0;
  std::uint32_t skipped = 0;
  watch::CheckpointStore reopened(dir_.string(), 3);
  const auto loaded = reopened.load(&error, &generation, &skipped);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(generation, 1u);
  EXPECT_EQ(skipped, 1u);
  EXPECT_EQ(loaded->seed, 1u);
}

TEST_F(WatchTest, SaveWatchCheckpointClassifiesEnospc) {
  ingest::FaultVfs::instance().clear();
  ingest::reset_write_retry_counters();
  ingest::FaultVfs::instance().fail_write_range(1, 1000, ENOSPC);
  const auto saved = watch::save_watch_checkpoint(
      (dir_ / "watch.ckpt").string(), tagged_checkpoint(1));
  ingest::FaultVfs::instance().clear();
  EXPECT_FALSE(saved.ok);
  EXPECT_EQ(saved.cls, ingest::WriteClass::kNoSpace);
  EXPECT_EQ(saved.err, ENOSPC);
  EXPECT_NE(saved.message.find("no-space"), std::string::npos)
      << saved.message;
  EXPECT_FALSE(fs::exists(dir_ / "watch.ckpt"));
  EXPECT_GE(
      ingest::write_retry_counters().enospc_failures.load(), 1u);
}

TEST_F(WatchTest, DurablePublisherDegradedModeCountsEpisodesAndRecovers) {
  ingest::FaultVfs::instance().clear();
  ingest::reset_write_retry_counters();
  watch::DurablePublisher publisher(dir_.string());
  ASSERT_TRUE(publisher.publish("cumulative.json", "v1"));
  EXPECT_FALSE(publisher.degraded());

  // Disk fills: the publish fails, the last-good file survives, exactly
  // one episode is counted no matter how many publishes fail.
  ingest::FaultVfs::instance().fail_write_range(1, 1'000'000, ENOSPC);
  EXPECT_FALSE(publisher.publish("cumulative.json", "v2"));
  EXPECT_FALSE(publisher.publish("window-000000000000.json", "w1"));
  EXPECT_FALSE(publisher.retry_pending());
  EXPECT_TRUE(publisher.degraded());
  EXPECT_EQ(publisher.pending(), 2u);
  EXPECT_EQ(publisher.degraded_episodes(), 1u);
  EXPECT_EQ(ingest::write_retry_counters().degraded_episodes.load(), 1u);
  {
    std::ifstream in(dir_ / "cumulative.json", std::ios::binary);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    EXPECT_EQ(text, "v1");  // last-good output retained
  }

  // A newer version supersedes the queued one (latest wins), then the
  // disk clears and retry_pending flushes everything.
  EXPECT_FALSE(publisher.publish("cumulative.json", "v3"));
  EXPECT_EQ(publisher.pending(), 2u);
  ingest::FaultVfs::instance().clear();
  EXPECT_TRUE(publisher.retry_pending());
  EXPECT_FALSE(publisher.degraded());
  EXPECT_EQ(publisher.pending(), 0u);
  EXPECT_EQ(publisher.degraded_episodes(), 1u);
  {
    std::ifstream in(dir_ / "cumulative.json", std::ios::binary);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    EXPECT_EQ(text, "v3");
  }
}

// ---------------------------------------------------------------------------
// window_seconds: the reader of the window flag in watch's flag table

TEST(WatchSpecTest, ParseWindowSpec) {
  EXPECT_EQ(experiments::window_seconds("hour"), 3600);
  EXPECT_EQ(experiments::window_seconds("day"), 24 * 3600);
  EXPECT_EQ(experiments::window_seconds("week"), 7 * 24 * 3600);
  EXPECT_EQ(experiments::window_seconds("900"), 900);
  EXPECT_EQ(experiments::window_seconds("0"), std::nullopt);
  EXPECT_EQ(experiments::window_seconds("-5"), std::nullopt);
  EXPECT_EQ(experiments::window_seconds("fortnight"), std::nullopt);
  EXPECT_EQ(experiments::window_seconds(""), std::nullopt);
  // Past int64 and trailing bytes are refused too, not clamped or cut.
  EXPECT_EQ(experiments::window_seconds("9223372036854775808"), std::nullopt);
  EXPECT_EQ(experiments::window_seconds("60s"), std::nullopt);
}

}  // namespace
}  // namespace mtlscope
