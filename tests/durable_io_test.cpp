// Durability suite (DESIGN §16): the write-side retry discipline, the
// atomic publication pipeline, the FaultVfs injector, and — riding
// along — direct coverage of the read-side retry.hpp policy the write
// path mirrors. The load-bearing assertions:
//
//   * read_fully / write_fully absorb EINTR storms and short transfers
//     unboundedly, absorb EAGAIN with bounded backoff (counted), and
//     surface a hard errno exactly once the budget is exhausted;
//   * atomic_publish_file either fully replaces the destination or
//     leaves its previous bytes untouched — never a torn file, never a
//     leftover temp sibling — and classifies ENOSPC/EIO failures;
//   * the container writer routes every frame through write_fully, so
//     injected EINTR/short-write storms leave a byte-perfect container
//     and an injected ENOSPC surfaces as a classified error, not a
//     truncated file that parses;
//   * shard-state saves are atomic under the same injection.
#include <gtest/gtest.h>
#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "mtlscope/colfmt/container.hpp"
#include "mtlscope/core/shard_state.hpp"
#include "mtlscope/ingest/durable_io.hpp"
#include "mtlscope/ingest/retry.hpp"

namespace mtlscope {
namespace {

namespace fs = std::filesystem;
using ingest::FaultVfs;
using ingest::WriteClass;
using ingest::WriteFault;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

class DurableIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultVfs::instance().clear();
    ingest::reset_write_retry_counters();
    ingest::reset_retry_counters();
    dir_ = fs::temp_directory_path() /
           ("mtlscope_durable_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    FaultVfs::instance().clear();
    fs::remove_all(dir_);
  }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  fs::path dir_;
};

// ---------------------------------------------------------------------------
// read_fully (retry.hpp) — the policy write_fully mirrors

TEST_F(DurableIoTest, ReadFullyRetriesEintrStormUnbounded) {
  const std::string payload = "forty-two bytes of deterministic payload!!";
  std::size_t calls = 0;
  const auto op = [&](char* dst, std::size_t len, std::size_t off) -> ssize_t {
    // Every other call is interrupted: 3x kMaxTransientRetries EINTRs in
    // total, far past the transient budget, and all absorbed.
    if (calls++ % 2 == 0) {
      errno = EINTR;
      return -1;
    }
    if (off >= payload.size()) return 0;
    const std::size_t n = std::min(len, std::size_t{1});
    std::memcpy(dst, payload.data() + off, n);
    return static_cast<ssize_t>(n);
  };
  std::string buf(payload.size(), '\0');
  const auto got = ingest::read_fully(op, buf.data(), buf.size(), 0);
  EXPECT_FALSE(got.error);
  EXPECT_EQ(got.bytes, payload.size());
  EXPECT_EQ(buf, payload);
  EXPECT_EQ(ingest::retry_counters().eintr_retries.load(),
            payload.size());  // one interruption absorbed per delivered byte
  // One-byte reads: every non-final delivery counts as a short read.
  EXPECT_EQ(ingest::retry_counters().short_reads.load(), payload.size() - 1);
}

TEST_F(DurableIoTest, ReadFullyBacksOffOnEagainThenRecovers) {
  int eagains = 3;
  const char byte = 'z';
  const auto op = [&](char* dst, std::size_t, std::size_t off) -> ssize_t {
    if (eagains > 0) {
      --eagains;
      errno = EAGAIN;
      return -1;
    }
    if (off >= 1) return 0;
    *dst = byte;
    return 1;
  };
  char buf[4] = {};
  const auto got = ingest::read_fully(op, buf, sizeof(buf), 0);
  EXPECT_FALSE(got.error);
  EXPECT_EQ(got.bytes, 1u);
  EXPECT_EQ(buf[0], byte);
  EXPECT_EQ(ingest::retry_counters().backoff_sleeps.load(), 3u);
}

TEST_F(DurableIoTest, ReadFullyGivesUpAfterTransientBudget) {
  const auto op = [](char*, std::size_t, std::size_t) -> ssize_t {
    errno = EAGAIN;
    return -1;
  };
  char buf[8];
  const auto got = ingest::read_fully(op, buf, sizeof(buf), 0);
  EXPECT_TRUE(got.error);
  EXPECT_EQ(got.err, EAGAIN);
  EXPECT_EQ(got.bytes, 0u);
  EXPECT_EQ(ingest::retry_counters().backoff_sleeps.load(),
            static_cast<std::uint64_t>(ingest::kMaxTransientRetries));
}

// ---------------------------------------------------------------------------
// write_fully

TEST_F(DurableIoTest, WriteFullyContinuesShortWritesAndEintr) {
  const std::string payload(97, 'q');
  std::string sink;
  std::size_t calls = 0;
  const auto op = [&](const char* src, std::size_t len,
                      std::size_t) -> ssize_t {
    if (calls++ % 3 == 0) {
      errno = EINTR;
      return -1;
    }
    const std::size_t n = std::min(len, std::size_t{7});  // chronic shorts
    sink.append(src, n);
    return static_cast<ssize_t>(n);
  };
  const auto out = ingest::write_fully(op, payload.data(), payload.size(), 0);
  EXPECT_FALSE(out.error);
  EXPECT_EQ(out.bytes, payload.size());
  EXPECT_EQ(sink, payload);
  EXPECT_GT(ingest::write_retry_counters().eintr_retries.load(), 0u);
  EXPECT_GT(ingest::write_retry_counters().short_writes.load(), 0u);
}

TEST_F(DurableIoTest, WriteFullyClassifiesHardFailure) {
  const auto op = [](const char*, std::size_t, std::size_t) -> ssize_t {
    errno = ENOSPC;
    return -1;
  };
  const char buf[16] = {};
  const auto out = ingest::write_fully(op, buf, sizeof(buf), 0);
  EXPECT_TRUE(out.error);
  EXPECT_EQ(out.err, ENOSPC);
  EXPECT_EQ(ingest::write_retry_counters().write_failures.load(), 1u);
  EXPECT_EQ(ingest::write_retry_counters().enospc_failures.load(), 1u);
}

TEST_F(DurableIoTest, WriteFullyTreatsZeroReturnAsBoundedTransient) {
  const auto op = [](const char*, std::size_t, std::size_t) -> ssize_t {
    return 0;  // device accepts nothing, forever
  };
  const char buf[4] = {};
  const auto out = ingest::write_fully(op, buf, sizeof(buf), 0);
  EXPECT_TRUE(out.error);
  EXPECT_EQ(out.err, EIO);
  EXPECT_EQ(ingest::write_retry_counters().backoff_sleeps.load(),
            static_cast<std::uint64_t>(ingest::kMaxTransientRetries));
}

TEST_F(DurableIoTest, ClassifyErrno) {
  EXPECT_EQ(ingest::classify_errno(0), WriteClass::kOk);
  EXPECT_EQ(ingest::classify_errno(ENOSPC), WriteClass::kNoSpace);
#ifdef EDQUOT
  EXPECT_EQ(ingest::classify_errno(EDQUOT), WriteClass::kNoSpace);
#endif
  EXPECT_EQ(ingest::classify_errno(EIO), WriteClass::kIo);
  EXPECT_EQ(ingest::classify_errno(EBADF), WriteClass::kOther);
}

// ---------------------------------------------------------------------------
// FaultVfs plan API + write_fully_fd over a real fd

TEST_F(DurableIoTest, FaultVfsInjectsEintrAndShortWritesTransparently) {
  auto& vfs = FaultVfs::instance();
  // Call sequence: 1 interrupted, 2 delivers half, 3 interrupted mid-
  // continuation, 4 delivers the rest.
  vfs.fault_write_at(1, WriteFault{WriteFault::Kind::kEintr, 0});
  vfs.fault_write_at(2, WriteFault{WriteFault::Kind::kShort, 0});
  vfs.fault_write_at(3, WriteFault{WriteFault::Kind::kEintr, 0});

  const std::string file = path("victim.bin");
  const int fd = ::open(file.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  ASSERT_GE(fd, 0);
  const std::string payload(64, 'x');
  const auto result = ingest::write_fully_fd(fd, payload, "victim");
  ::close(fd);
  EXPECT_TRUE(result.ok) << result.message;
  EXPECT_EQ(slurp(file), payload);
  EXPECT_EQ(ingest::write_retry_counters().eintr_retries.load(), 2u);
  EXPECT_GE(ingest::write_retry_counters().short_writes.load(), 1u);
  EXPECT_GE(vfs.writes_seen(), 4u);
}

TEST_F(DurableIoTest, FaultVfsEnospcClassified) {
  FaultVfs::instance().fail_write_range(1, 1000, ENOSPC);
  const std::string file = path("full.bin");
  const int fd = ::open(file.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  ASSERT_GE(fd, 0);
  const auto result = ingest::write_fully_fd(fd, "doomed", "full");
  ::close(fd);
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.cls, WriteClass::kNoSpace);
  EXPECT_EQ(result.err, ENOSPC);
  EXPECT_NE(result.message.find("no-space"), std::string::npos)
      << result.message;
}

// ---------------------------------------------------------------------------
// atomic_publish_file

TEST_F(DurableIoTest, AtomicPublishReplacesAndLeavesNoTemp) {
  const std::string dst = path("doc.json");
  ASSERT_TRUE(ingest::atomic_publish_file(dst, "v1", "test.site").ok);
  ASSERT_TRUE(ingest::atomic_publish_file(dst, "version-two", "test.site").ok);
  EXPECT_EQ(slurp(dst), "version-two");
  EXPECT_FALSE(fs::exists(ingest::publish_tmp_path(dst)));
  EXPECT_EQ(ingest::write_retry_counters().atomic_publishes.load(), 2u);
  EXPECT_GE(ingest::write_retry_counters().fsyncs.load(), 2u);
  EXPECT_GE(ingest::write_retry_counters().dir_fsyncs.load(), 2u);
}

TEST_F(DurableIoTest, AtomicPublishFailureRetainsPreviousBytes) {
  const std::string dst = path("doc.json");
  ASSERT_TRUE(ingest::atomic_publish_file(dst, "last-good", "test.site").ok);
  FaultVfs::instance().fail_write_range(1, 1000, ENOSPC);
  const auto result = ingest::atomic_publish_file(dst, "torn", "test.site");
  FaultVfs::instance().clear();
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.cls, WriteClass::kNoSpace);
  EXPECT_EQ(slurp(dst), "last-good");  // destination untouched
  EXPECT_FALSE(fs::exists(ingest::publish_tmp_path(dst)));  // temp removed
}

TEST_F(DurableIoTest, PublishTmpPathIsDotPrefixedSibling) {
  EXPECT_EQ(ingest::publish_tmp_path("/a/b/cumulative.json"),
            "/a/b/.cumulative.json.tmp");
}

// ---------------------------------------------------------------------------
// ContainerWriter under injection (the raw ::write loops it replaced)

zeek::SslRecord make_ssl(int i) {
  zeek::SslRecord rec;
  rec.ts = 1700000000 + i;
  rec.uid = "C" + std::to_string(i);
  rec.orig_h = colfmt::Str("10.0.0." + std::to_string(i % 250));
  rec.orig_p = static_cast<std::uint16_t>(40000 + i);
  rec.resp_h = colfmt::Str("192.168.1.1");
  rec.resp_p = 443;
  rec.version = colfmt::Str("TLSv12");
  rec.server_name = colfmt::Str("host" + std::to_string(i % 7) + ".example");
  rec.established = true;
  rec.cert_chain_fuids.emplace_back("F" + std::to_string(i));
  return rec;
}

TEST_F(DurableIoTest, ContainerWriterSurvivesEintrAndShortWriteStorm) {
  auto& vfs = FaultVfs::instance();
  // Harass the first 40 hooked writes, alternating interrupt and short.
  for (std::uint64_t k = 1; k <= 40; ++k) {
    vfs.fault_write_at(k, WriteFault{k % 2 == 0 ? WriteFault::Kind::kEintr
                                                : WriteFault::Kind::kShort,
                                     0});
  }
  const std::string file = path("storm.mtlc");
  colfmt::WriterOptions options;
  options.block_rows = 16;  // many frames → many hooked writes
  colfmt::ContainerWriter writer(file, options);
  ASSERT_TRUE(writer.ok()) << writer.error();
  for (int i = 0; i < 200; ++i) writer.add_ssl(make_ssl(i));
  std::string error;
  ASSERT_TRUE(writer.finish(&error)) << error;
  vfs.clear();

  auto reader = colfmt::ContainerReader::open(file, &error);
  ASSERT_TRUE(reader.has_value()) << error;
  std::uint64_t rows = 0;
  for (const auto& frame : reader->ssl_blocks()) rows += frame.rows;
  EXPECT_EQ(rows, 200u);
  EXPECT_GT(ingest::write_retry_counters().eintr_retries.load(), 0u);
  EXPECT_GT(ingest::write_retry_counters().short_writes.load(), 0u);
}

TEST_F(DurableIoTest, ContainerWriterClassifiesEnospc) {
  FaultVfs::instance().fail_write_range(3, 1'000'000, ENOSPC);
  const std::string file = path("full.mtlc");
  colfmt::WriterOptions options;
  options.block_rows = 16;
  colfmt::ContainerWriter writer(file, options);
  for (int i = 0; i < 200 && writer.ok(); ++i) writer.add_ssl(make_ssl(i));
  std::string error;
  const bool finished = writer.finish(&error);
  FaultVfs::instance().clear();
  ASSERT_FALSE(finished);
  EXPECT_NE(error.find("no-space"), std::string::npos) << error;
}

// ---------------------------------------------------------------------------
// shard-state saves are atomic

TEST_F(DurableIoTest, ShardStateSaveFailureLeavesPreviousStateReadable) {
  core::ShardState state;
  state.pipeline.emplace();
  state.meta.seed = 7;
  const std::string file = path("shard.state");
  std::string error;
  ASSERT_TRUE(core::save_shard_state(file, state, nullptr, &error)) << error;
  const std::string good = slurp(file);
  ASSERT_FALSE(good.empty());

  state.meta.seed = 8;
  FaultVfs::instance().fail_write_range(1, 1000, ENOSPC);
  const bool saved = core::save_shard_state(file, state, nullptr, &error);
  FaultVfs::instance().clear();
  EXPECT_FALSE(saved);
  EXPECT_NE(error.find("no-space"), std::string::npos) << error;
  EXPECT_EQ(slurp(file), good);  // previous generation intact
  EXPECT_FALSE(fs::exists(ingest::publish_tmp_path(file)));
}

}  // namespace
}  // namespace mtlscope
