// Compact container + interning arena suite (DESIGN §14). The
// load-bearing assertions:
//
//   * the interning arena returns one stable pointer per distinct byte
//     sequence even under concurrent interning from many threads (the
//     shard-merge case: analyzer shards built on worker threads hold
//     Strs that must compare equal after the merge);
//   * a container round-trips every record field exactly — including
//     embedded NULs, multi-kilobyte DNs past the 64 KiB mark, and raw
//     (un-escaped) DER bytes;
//   * dictionary overflow spills into a secondary block instead of
//     growing without bound, and the row cap splits blocks, both
//     without losing row order;
//   * scan_frames accepts every frame-boundary prefix of a growing
//     container (the streaming-producer contract) and the finished
//     reader rejects flipped bytes via the footer digest;
//   * compact_logs + verify_container re-expand and field-compare the
//     container against a tolerant TSV parse, including quarantined-row
//     counts, and fail on post-conversion divergence;
//   * ContainerTail consumes frames as they stream in, carries partial
//     frames across polls, and a checkpointed position restores into a
//     fresh tail without replaying or dropping rows; a bad incarnation
//     (bad magic, a frame claiming an absurd length) is reported once
//     and buffers nothing, however much a writer keeps appending.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "mtlscope/colfmt/arena.hpp"
#include "mtlscope/colfmt/container.hpp"
#include "mtlscope/colfmt/convert.hpp"
#include "mtlscope/colfmt/wire.hpp"
#include "mtlscope/core/state_io.hpp"
#include "mtlscope/watch/checkpoint.hpp"
#include "mtlscope/watch/container_tail.hpp"
#include "mtlscope/zeek/records.hpp"

namespace mtlscope {
namespace {

namespace fs = std::filesystem;

class ColfmtTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("mtlscope_colfmt_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  std::string path(const std::string& name) { return (dir_ / name).string(); }

  std::string write_file(const std::string& name, const std::string& text) {
    const fs::path p = dir_ / name;
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    out << text;
    return p.string();
  }

  std::string slurp(const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  }

  fs::path dir_;
};

zeek::SslRecord make_ssl(int i) {
  zeek::SslRecord rec;
  rec.ts = 1000 + i;
  rec.uid = "C" + std::to_string(i);
  rec.orig_h = "10.0.0." + std::to_string(i % 4);
  rec.orig_p = static_cast<std::uint16_t>(40000 + i);
  rec.resp_h = "192.168.1." + std::to_string(i % 3);
  rec.resp_p = 443;
  rec.version = i % 2 == 0 ? "TLSv12" : "TLSv13";
  rec.server_name = "host" + std::to_string(i % 5) + ".example";
  rec.established = i % 3 != 0;
  if (i % 2 == 0) {
    rec.cert_chain_fuids = {colfmt::Str("F" + std::to_string(i)),
                            colfmt::Str("Froot")};
  }
  if (i % 7 == 0) {
    rec.client_cert_chain_fuids = {colfmt::Str("Fclient")};
  }
  return rec;
}

zeek::X509Record make_x509(int i) {
  zeek::X509Record rec;
  rec.fuid = colfmt::Str("F" + std::to_string(i));
  rec.version = 3;
  rec.serial = colfmt::Str("0A1B" + std::to_string(i));
  rec.subject = colfmt::Str("CN=host" + std::to_string(i % 5) + ".example");
  rec.issuer = "CN=Example CA,O=Example";
  rec.not_valid_before = 1600000000 + i;
  rec.not_valid_after = 1700000000 + i;
  rec.key_alg = "rsaEncryption";
  rec.key_length = 2048;
  rec.san_dns = {colfmt::Str("host" + std::to_string(i % 5) + ".example")};
  const std::string der{'\x30', '\x82', '\x01', '\x00',
                        static_cast<char>(i), '\x00', '\xff'};
  rec.cert_der = colfmt::CertArena::global().intern(der);
  return rec;
}

void expect_ssl_equal(const zeek::SslRecord& a, const zeek::SslRecord& b,
                      int i) {
  EXPECT_EQ(a.ts, b.ts) << "row " << i;
  EXPECT_EQ(a.uid, b.uid) << "row " << i;
  EXPECT_EQ(a.orig_h, b.orig_h) << "row " << i;
  EXPECT_EQ(a.orig_p, b.orig_p) << "row " << i;
  EXPECT_EQ(a.resp_h, b.resp_h) << "row " << i;
  EXPECT_EQ(a.resp_p, b.resp_p) << "row " << i;
  EXPECT_EQ(a.version, b.version) << "row " << i;
  EXPECT_EQ(a.server_name, b.server_name) << "row " << i;
  EXPECT_EQ(a.established, b.established) << "row " << i;
  EXPECT_EQ(a.cert_chain_fuids, b.cert_chain_fuids) << "row " << i;
  EXPECT_EQ(a.client_cert_chain_fuids, b.client_cert_chain_fuids)
      << "row " << i;
}

void expect_x509_equal(const zeek::X509Record& a, const zeek::X509Record& b,
                       int i) {
  EXPECT_EQ(a.fuid, b.fuid) << "row " << i;
  EXPECT_EQ(a.version, b.version) << "row " << i;
  EXPECT_EQ(a.serial, b.serial) << "row " << i;
  EXPECT_EQ(a.subject, b.subject) << "row " << i;
  EXPECT_EQ(a.issuer, b.issuer) << "row " << i;
  EXPECT_EQ(a.not_valid_before, b.not_valid_before) << "row " << i;
  EXPECT_EQ(a.not_valid_after, b.not_valid_after) << "row " << i;
  EXPECT_EQ(a.key_alg, b.key_alg) << "row " << i;
  EXPECT_EQ(a.key_length, b.key_length) << "row " << i;
  EXPECT_EQ(a.san_dns, b.san_dns) << "row " << i;
  EXPECT_EQ(a.san_email, b.san_email) << "row " << i;
  EXPECT_EQ(a.san_uri, b.san_uri) << "row " << i;
  EXPECT_EQ(a.san_ip, b.san_ip) << "row " << i;
  EXPECT_EQ(a.cert_der.view(), b.cert_der.view()) << "row " << i;
}

// ---------------------------------------------------------------------------
// Interning arena

TEST_F(ColfmtTest, ArenaFrontCacheIsPerInstance) {
  // A new arena built in the storage of a destroyed one must not be
  // served the old arena's cached pointers: every value is interned
  // afresh. The values are built up front and re-interned newest first,
  // so the first probes name bytes that sit past the start of a freed
  // chunk, where a stale slot would still compare equal.
  constexpr int kValues = 64;
  std::vector<std::string> values;
  for (int v = 0; v < kValues; ++v) {
    values.push_back("CN=reused-slot-" + std::to_string(v));
  }
  std::optional<colfmt::StringArena> arena;
  arena.emplace(4096);
  const void* storage = &*arena;
  for (const std::string& value : values) arena->intern(value);
  arena.reset();
  arena.emplace(4096);
  ASSERT_EQ(static_cast<const void*>(&*arena), storage);
  for (int v = kValues - 1; v >= 0; --v) {
    const colfmt::Str fresh = arena->intern(values[v]);
    EXPECT_EQ(fresh.view(), values[v]);
    EXPECT_EQ(arena->intern(values[v]).data(), fresh.data()) << "value " << v;
  }
  EXPECT_EQ(arena->stats().strings, static_cast<std::uint64_t>(kValues));
}

// Values with embedded NULs and values past the 64 KiB mark keep their
// bytes and dedupe, also once the index has grown many times: with a
// small chunk (the huge value gets a dedicated allocation) and with
// CertArena's 1 MiB chunk (it sits in the bump chunk).
TEST_F(ColfmtTest, ArenaKeepsEmbeddedNulsAndHugeValues) {
  for (const std::size_t chunk_bytes : {std::size_t{1024},
                                        std::size_t{1024 * 1024}}) {
    SCOPED_TRACE(chunk_bytes);
    colfmt::StringArena arena(chunk_bytes);
    constexpr std::size_t kFresh = 50'000;
    for (std::size_t i = 0; i < kFresh; ++i) {
      arena.intern("\x30\x82growth-" + std::to_string(i));
    }
    ASSERT_EQ(arena.stats().strings, kFresh);

    const std::string nul_dn("CN=a\0b,O=c\0", 11);
    const std::string huge_dn = "CN=" + std::string(70 * 1024, 'x');
    const colfmt::Str a = arena.intern(nul_dn);
    const colfmt::Str b = arena.intern(huge_dn);
    EXPECT_EQ(a.view(), std::string_view(nul_dn));
    EXPECT_EQ(a.size(), 11u);
    EXPECT_EQ(b.view(), std::string_view(huge_dn));
    // Re-interning returns the same storage.
    EXPECT_EQ(arena.intern(nul_dn).data(), a.data());
    EXPECT_EQ(arena.intern(huge_dn).data(), b.data());
    EXPECT_EQ(arena.intern("\x30\x82growth-7").view(), "\x30\x82growth-7");
    EXPECT_EQ(arena.stats().strings, kFresh + 2);
  }
}

// Worker threads interning the same values — the shard-merge shape:
// analyzer shards built on different threads hold Strs for the same
// issuers, and the merged result must see one storage per value. Lookups
// probe each shard's index without a lock while another thread may be
// growing it, so growth is raced too: eight threads intern overlapping
// ranges of fresh address-like values, every range shared by four
// threads, so each shard's table doubles many times while the others
// probe it (and read retired tables). Each value is interned twice, so
// the thread-local front cache must return the shard's pointer.
TEST_F(ColfmtTest, ArenaInternsOnePointerPerValueAcrossThreads) {
  colfmt::StringArena arena(4096);
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kDistinct = 200'000;
  constexpr std::size_t kPerThread = kDistinct / 2;
  const auto value = [](std::size_t v) {
    return "10." + std::to_string(v >> 16) + "." +
           std::to_string((v >> 8) & 0xff) + "." + std::to_string(v & 0xff);
  };
  std::vector<std::vector<colfmt::Str>> handles(kThreads);
  {
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        auto& mine = handles[t];
        mine.reserve(kPerThread);
        for (std::size_t i = 0; i < kPerThread; ++i) {
          const std::string s = value((t * kDistinct / kThreads + i) %
                                      kDistinct);
          const colfmt::Str first = arena.intern(s);
          const colfmt::Str again = arena.intern(s);
          if (first.data() != again.data()) {
            ADD_FAILURE() << "re-intern moved " << s;
            return;
          }
          mine.push_back(first);
        }
      });
    }
    for (auto& th : threads) th.join();
  }
  // Every handle, most taken before their shard's last growth, still
  // reads back its bytes, and one value has one storage.
  std::vector<const char*> storage(kDistinct, nullptr);
  for (std::size_t t = 0; t < kThreads; ++t) {
    ASSERT_EQ(handles[t].size(), kPerThread);
    for (std::size_t i = 0; i < kPerThread; ++i) {
      const std::size_t v = (t * kDistinct / kThreads + i) % kDistinct;
      const colfmt::Str h = handles[t][i];
      ASSERT_EQ(h.view(), value(v));
      ASSERT_EQ(h.c_str()[h.size()], '\0');
      if (storage[v] == nullptr) storage[v] = h.data();
      ASSERT_EQ(h.data(), storage[v]) << "value " << value(v);
    }
  }
  EXPECT_EQ(arena.stats().strings, kDistinct);
  EXPECT_EQ(arena.intern(value(12345)).data(), storage[12345]);
}

// ---------------------------------------------------------------------------
// Container round-trip

TEST_F(ColfmtTest, ContainerRoundTripPreservesEveryField) {
  const std::string out = path("round.mtlc");
  std::vector<zeek::SslRecord> ssl;
  std::vector<zeek::X509Record> x509;
  for (int i = 0; i < 50; ++i) ssl.push_back(make_ssl(i));
  for (int i = 0; i < 20; ++i) x509.push_back(make_x509(i));
  // Hostile shapes: an embedded NUL and a >64 KiB DN in dictionary
  // columns, raw DER with NULs and high bytes in the blob column.
  x509[3].subject = colfmt::Str(std::string("CN=a\0b", 6));
  x509[4].issuer = colfmt::Str("CN=" + std::string(70 * 1024, 'y'));
  x509[5].cert_der = colfmt::CertArena::global().intern(
      std::string("\x00\xff\x30\x00\x01", 5));

  colfmt::ContainerWriter writer(out);
  ASSERT_TRUE(writer.ok()) << writer.error();
  for (const auto& rec : x509) writer.add_x509(rec);
  for (const auto& rec : ssl) writer.add_ssl(rec);
  colfmt::ContainerMeta meta;
  meta.ssl_path = "ssl.log";
  meta.x509_path = "x509.log";
  meta.ssl_rows = ssl.size();
  meta.x509_rows = x509.size();
  meta.ssl_bytes = 12345;
  meta.x509_bytes = 678;
  writer.set_meta(meta);
  std::string error;
  ASSERT_TRUE(writer.finish(&error)) << error;

  auto reader = colfmt::ContainerReader::open(out, &error);
  ASSERT_TRUE(reader) << error;
  EXPECT_EQ(reader->meta().ssl_path, "ssl.log");
  EXPECT_EQ(reader->meta().x509_path, "x509.log");
  EXPECT_EQ(reader->meta().ssl_rows, ssl.size());
  EXPECT_EQ(reader->meta().x509_rows, x509.size());
  EXPECT_EQ(reader->meta().ssl_bytes, 12345u);

  std::vector<zeek::SslRecord> got_ssl;
  for (const auto& block : reader->ssl_blocks()) {
    auto rows = reader->decode_ssl_block(block);
    got_ssl.insert(got_ssl.end(), rows.begin(), rows.end());
  }
  std::vector<zeek::X509Record> got_x509;
  for (const auto& block : reader->x509_blocks()) {
    auto rows = reader->decode_x509_block(block);
    got_x509.insert(got_x509.end(), rows.begin(), rows.end());
  }
  ASSERT_EQ(got_ssl.size(), ssl.size());
  ASSERT_EQ(got_x509.size(), x509.size());
  for (std::size_t i = 0; i < ssl.size(); ++i) {
    expect_ssl_equal(ssl[i], got_ssl[i], static_cast<int>(i));
  }
  for (std::size_t i = 0; i < x509.size(); ++i) {
    expect_x509_equal(x509[i], got_x509[i], static_cast<int>(i));
  }
}

TEST_F(ColfmtTest, DictionaryOverflowSpillsToSecondaryBlock) {
  const std::string out = path("spill.mtlc");
  colfmt::WriterOptions options;
  options.block_rows = 1 << 20;  // row cap out of the way
  options.dict_bytes = 2048;     // tiny dictionary forces the spill
  colfmt::ContainerWriter writer(out, options);
  ASSERT_TRUE(writer.ok()) << writer.error();
  std::vector<zeek::SslRecord> ssl;
  for (int i = 0; i < 200; ++i) {
    zeek::SslRecord rec = make_ssl(i);
    // Distinct long SNI per row: the dictionary grows past the cap.
    rec.server_name =
        colfmt::Str("sni-" + std::string(64, 'a' + (i % 26)) +
                    std::to_string(i));
    ssl.push_back(rec);
    writer.add_ssl(rec);
  }
  std::string error;
  ASSERT_TRUE(writer.finish(&error)) << error;
  EXPECT_GT(writer.blocks_written(), 1u);

  auto reader = colfmt::ContainerReader::open(out, &error);
  ASSERT_TRUE(reader) << error;
  EXPECT_GT(reader->ssl_blocks().size(), 1u);
  std::uint64_t footer_rows = 0;
  std::vector<zeek::SslRecord> got;
  for (const auto& block : reader->ssl_blocks()) {
    footer_rows += block.rows;
    auto rows = reader->decode_ssl_block(block);
    got.insert(got.end(), rows.begin(), rows.end());
  }
  EXPECT_EQ(footer_rows, ssl.size());
  ASSERT_EQ(got.size(), ssl.size());
  for (std::size_t i = 0; i < ssl.size(); ++i) {
    expect_ssl_equal(ssl[i], got[i], static_cast<int>(i));
  }
}

TEST_F(ColfmtTest, RowCapSplitsBlocksInOrder) {
  const std::string out = path("rows.mtlc");
  colfmt::WriterOptions options;
  options.block_rows = 4;
  colfmt::ContainerWriter writer(out, options);
  for (int i = 0; i < 10; ++i) writer.add_ssl(make_ssl(i));
  std::string error;
  ASSERT_TRUE(writer.finish(&error)) << error;

  auto reader = colfmt::ContainerReader::open(out, &error);
  ASSERT_TRUE(reader) << error;
  ASSERT_EQ(reader->ssl_blocks().size(), 3u);
  EXPECT_EQ(reader->ssl_blocks()[0].rows, 4u);
  EXPECT_EQ(reader->ssl_blocks()[1].rows, 4u);
  EXPECT_EQ(reader->ssl_blocks()[2].rows, 2u);
  int i = 0;
  for (const auto& block : reader->ssl_blocks()) {
    for (const auto& rec : reader->decode_ssl_block(block)) {
      expect_ssl_equal(make_ssl(i), rec, i);
      ++i;
    }
  }
  EXPECT_EQ(i, 10);
}

// ---------------------------------------------------------------------------
// Framing

TEST_F(ColfmtTest, ScanFramesAcceptsEveryFrameBoundaryPrefix) {
  const std::string out = path("prefix.mtlc");
  colfmt::WriterOptions options;
  options.block_rows = 4;
  colfmt::ContainerWriter writer(out, options);
  for (int i = 0; i < 10; ++i) writer.add_ssl(make_ssl(i));
  std::string error;
  ASSERT_TRUE(writer.finish(&error)) << error;
  const std::string data = slurp(out);

  std::uint64_t next = 0;
  auto all = colfmt::scan_frames(data, 0, &next, &error);
  ASSERT_TRUE(all) << error;
  EXPECT_EQ(next, data.size());
  ASSERT_GE(all->size(), 3u);
  EXPECT_EQ(all->back().kind, colfmt::FrameKind::kFooter);

  // Every frame boundary is a valid prefix; a byte short of a boundary
  // holds the incomplete frame back without erroring.
  std::uint64_t boundary = colfmt::kContainerHeaderBytes;
  for (std::size_t f = 0; f < all->size(); ++f) {
    boundary += colfmt::kFrameHeaderBytes + (*all)[f].payload_len;
    std::uint64_t got_next = 0;
    auto frames = colfmt::scan_frames(data.substr(0, boundary), 0,
                                      &got_next, &error);
    ASSERT_TRUE(frames) << error;
    EXPECT_EQ(frames->size(), f + 1);
    EXPECT_EQ(got_next, boundary);

    auto short_frames = colfmt::scan_frames(data.substr(0, boundary - 1),
                                            0, &got_next, &error);
    ASSERT_TRUE(short_frames) << error;
    EXPECT_EQ(short_frames->size(), f);
  }
}

TEST_F(ColfmtTest, ReaderRejectsFlippedByte) {
  const std::string out = path("corrupt.mtlc");
  colfmt::ContainerWriter writer(out);
  for (int i = 0; i < 10; ++i) writer.add_ssl(make_ssl(i));
  std::string error;
  ASSERT_TRUE(writer.finish(&error)) << error;

  std::string data = slurp(out);
  data[data.size() / 2] ^= 0x40;  // inside a block payload
  write_file("corrupt.mtlc", data);
  auto reader = colfmt::ContainerReader::open(out, &error);
  EXPECT_FALSE(reader);
  EXPECT_NE(error.find("digest"), std::string::npos) << error;
}

// ---------------------------------------------------------------------------
// Conversion + verification

constexpr const char* kSslHeader =
    "#separator \\x09\n"
    "#fields\tts\tuid\tid.orig_h\tid.orig_p\tid.resp_h\tid.resp_p"
    "\tversion\tserver_name\testablished\tcert_chain_fuids"
    "\tclient_cert_chain_fuids\n";

constexpr const char* kX509Header =
    "#separator \\x09\n"
    "#fields\tfuid\tcertificate.version\tcertificate.serial"
    "\tcertificate.subject\tcertificate.issuer"
    "\tcertificate.not_valid_before\tcertificate.not_valid_after"
    "\tcertificate.key_alg\tcertificate.key_length\tsan.dns"
    "\tsan.email\tsan.uri\tsan.ip\n";

std::string ssl_row(int i) {
  return std::to_string(100 + i) +
         ".000000\tC" + std::to_string(i) +
         "\t10.0.0.1\t1000\t10.0.0.2\t443\tTLSv12\thost.example\tT\tF" +
         std::to_string(i % 3) + "\t(empty)\n";
}

std::string x509_row(int i) {
  return "F" + std::to_string(i) +
         "\t3\t0A" + std::to_string(i) +
         "\tCN=host.example\tCN=Example CA\t1600000000.000000"
         "\t1700000000.000000\trsaEncryption\t2048\thost.example"
         "\t-\t-\t-\n";
}

// The footer digest proves integrity, not origin, and the streaming tail
// decodes frames before any footer exists: a block's dictionary count is
// attacker-chosen. A 2^32-1 count over a few bytes must end in the
// cursor's structured error, never a multi-GB reservation.
TEST_F(ColfmtTest, HostileDictionaryCountIsAStructuredError) {
  std::string payload;
  colfmt::wire::put_u32(payload, 0);            // rows
  colfmt::wire::put_u32(payload, 0xFFFFFFFFu);  // dictionary count
  for (int i = 0; i < 3; ++i) colfmt::wire::put_u64(payload, 0);  // "" x3
  EXPECT_THROW(colfmt::decode_ssl_block_payload(payload), core::StateError);
  EXPECT_THROW(colfmt::decode_ssl_block_payload(
                   payload, colfmt::FrameKind::kSslBlockDelta),
               core::StateError);
  EXPECT_THROW(colfmt::decode_x509_block_payload(payload), core::StateError);
}

TEST_F(ColfmtTest, CompactLogsVerifiesAgainstTheTsvPair) {
  std::string ssl_text(kSslHeader);
  for (int i = 0; i < 40; ++i) ssl_text += ssl_row(i);
  std::string x509_text(kX509Header);
  for (int i = 0; i < 3; ++i) x509_text += x509_row(i);
  const std::string ssl_path = write_file("ssl.log", ssl_text);
  const std::string x509_path = write_file("x509.log", x509_text);

  colfmt::CompactRequest request;
  request.ssl_path = ssl_path;
  request.x509_path = x509_path;
  request.out_path = path("logs.mtlc");
  colfmt::CompactStats stats;
  std::string error;
  ASSERT_TRUE(colfmt::compact_logs(request, &stats, &error)) << error;
  EXPECT_EQ(stats.ssl_rows, 40u);
  EXPECT_EQ(stats.x509_rows, 3u);
  EXPECT_EQ(stats.quarantined, 0u);

  std::string report;
  EXPECT_TRUE(colfmt::verify_container(request.out_path, &report, &error))
      << error;
  EXPECT_NE(report.find("40 ssl rows"), std::string::npos) << report;

  // Post-conversion divergence: the TSV grew a row the container lacks.
  std::ofstream(ssl_path, std::ios::binary | std::ios::app) << ssl_row(99);
  EXPECT_FALSE(colfmt::verify_container(request.out_path, &report, &error));
  EXPECT_NE(error.find("row"), std::string::npos) << error;
}

TEST_F(ColfmtTest, CompactLogsCarriesQuarantineCounts) {
  std::string ssl_text(kSslHeader);
  ssl_text += ssl_row(0);
  ssl_text += "not\ta\tvalid\trow\n";
  ssl_text += ssl_row(1);
  const std::string ssl_path = write_file("ssl.log", ssl_text);
  const std::string x509_path = write_file("x509.log", kX509Header);

  colfmt::CompactRequest request;
  request.ssl_path = ssl_path;
  request.x509_path = x509_path;
  request.out_path = path("dirty.mtlc");
  request.errors.on_error = ingest::ErrorPolicy::Action::kSkip;
  colfmt::CompactStats stats;
  std::string error;
  ASSERT_TRUE(colfmt::compact_logs(request, &stats, &error)) << error;
  EXPECT_EQ(stats.ssl_rows, 2u);
  EXPECT_EQ(stats.quarantined, 1u);

  // The container's ledger frame records the quarantined row with its
  // original TSV coordinates; verify re-parses and cross-checks it.
  auto reader = colfmt::ContainerReader::open(request.out_path, &error);
  ASSERT_TRUE(reader) << error;
  ASSERT_TRUE(reader->has_ledger());
  const core::ErrorLedger ledger = reader->ledger();
  EXPECT_EQ(ledger.quarantined(core::InputRole::kSsl), 1u);
  EXPECT_EQ(ledger.rows_ok(core::InputRole::kSsl), 2u);
  ASSERT_EQ(ledger.entries().size(), 1u);
  // 2 header lines + 1 good row before it: physical line 4.
  EXPECT_EQ(ledger.entries()[0].line, 4u);

  std::string report;
  EXPECT_TRUE(colfmt::verify_container(request.out_path, &report, &error))
      << error;
  EXPECT_NE(report.find("1 quarantined"), std::string::npos) << report;
}

// ---------------------------------------------------------------------------
// Streaming tail

TEST_F(ColfmtTest, ContainerTailStreamsFramesAcrossPolls) {
  // A finished container fed to the tail in small appends: frames
  // complete across poll boundaries (partial frames carry), the meta
  // frame surfaces provenance, the footer flags completion.
  const std::string full = path("full.mtlc");
  colfmt::WriterOptions options;
  options.block_rows = 8;
  colfmt::ContainerWriter writer(full, options);
  for (int i = 0; i < 20; ++i) writer.add_x509(make_x509(i));
  for (int i = 0; i < 30; ++i) writer.add_ssl(make_ssl(i));
  colfmt::ContainerMeta meta;
  meta.ssl_path = "orig_ssl.log";
  meta.x509_path = "orig_x509.log";
  writer.set_meta(meta);
  std::string error;
  ASSERT_TRUE(writer.finish(&error)) << error;
  const std::string data = slurp(full);

  const std::string grow = path("grow.mtlc");
  write_file("grow.mtlc", "");
  watch::ContainerTail tail(grow);
  std::vector<zeek::SslRecord> got_ssl;
  std::vector<zeek::X509Record> got_x509;
  bool finished = false;
  constexpr std::size_t kStep = 777;  // never frame-aligned
  for (std::size_t off = 0; off < data.size(); off += kStep) {
    std::ofstream(grow, std::ios::binary | std::ios::app)
        << data.substr(off, kStep);
    auto rows = tail.poll();
    EXPECT_TRUE(rows.error.empty()) << rows.error;
    got_ssl.insert(got_ssl.end(),
                   std::make_move_iterator(rows.ssl.begin()),
                   std::make_move_iterator(rows.ssl.end()));
    got_x509.insert(got_x509.end(),
                    std::make_move_iterator(rows.x509.begin()),
                    std::make_move_iterator(rows.x509.end()));
    finished = finished || rows.finished;
  }
  EXPECT_TRUE(finished);
  ASSERT_TRUE(tail.meta().has_value());
  EXPECT_EQ(tail.meta()->ssl_path, "orig_ssl.log");
  ASSERT_EQ(got_ssl.size(), 30u);
  ASSERT_EQ(got_x509.size(), 20u);
  for (int i = 0; i < 30; ++i) expect_ssl_equal(make_ssl(i), got_ssl[i], i);
  for (int i = 0; i < 20; ++i) {
    expect_x509_equal(make_x509(i), got_x509[i], i);
  }
}

TEST_F(ColfmtTest, ContainerTailCheckpointRestoresWithoutReplay) {
  const std::string full = path("full.mtlc");
  colfmt::WriterOptions options;
  options.block_rows = 8;
  colfmt::ContainerWriter writer(full, options);
  for (int i = 0; i < 32; ++i) writer.add_ssl(make_ssl(i));
  std::string error;
  ASSERT_TRUE(writer.finish(&error)) << error;
  const std::string data = slurp(full);

  // First incarnation consumes roughly half the bytes (mid-frame).
  const std::string grow = path("grow.mtlc");
  write_file("grow.mtlc", data.substr(0, data.size() / 2));
  std::size_t first_rows = 0;
  watch::TailPosition position;
  {
    watch::ContainerTail tail(grow);
    auto rows = tail.poll();
    EXPECT_TRUE(rows.error.empty()) << rows.error;
    first_rows = rows.ssl.size();
    position = tail.position();
    EXPECT_TRUE(position.header_done);
    EXPECT_FALSE(position.carry.empty());  // a partial frame is carried
  }

  // A fresh tail restores the position — the daemon-restart path — and
  // the remaining appends deliver every other row exactly once.
  watch::ContainerTail resumed(grow);
  ASSERT_TRUE(resumed.restore(position));
  std::ofstream(grow, std::ios::binary | std::ios::app)
      << data.substr(data.size() / 2);
  auto rows = resumed.poll();
  EXPECT_TRUE(rows.error.empty()) << rows.error;
  EXPECT_TRUE(rows.finished);
  ASSERT_EQ(first_rows + rows.ssl.size(), 32u);
  for (std::size_t i = 0; i < rows.ssl.size(); ++i) {
    expect_ssl_equal(make_ssl(static_cast<int>(first_rows + i)), rows.ssl[i],
                     static_cast<int>(first_rows + i));
  }

  // Truncated-while-down: restore refuses and restarts from scratch.
  write_file("grow.mtlc", data.substr(0, 10));
  watch::ContainerTail restarted(grow);
  EXPECT_FALSE(restarted.restore(position));
}

TEST_F(ColfmtTest, ContainerTailReportsBadMagicOnce) {
  const std::string grow = path("bogus.mtlc");
  write_file("bogus.mtlc", std::string(64, 'Z'));
  watch::ContainerTail tail(grow);
  auto rows = tail.poll();
  EXPECT_NE(rows.error.find("magic"), std::string::npos) << rows.error;
  // More garbage: buffered, not re-reported.
  std::ofstream(grow, std::ios::binary | std::ios::app)
      << std::string(64, 'Q');
  rows = tail.poll();
  EXPECT_TRUE(rows.error.empty());
  EXPECT_TRUE(rows.ssl.empty());

  // A writer that keeps appending megabytes to the bad incarnation: the
  // tail discards them instead of carrying (and checkpointing) them,
  // moves its fetch position on, and reports nothing new.
  const std::string chunk(std::size_t{4} << 20, 'Q');
  for (int i = 0; i < 3; ++i) {
    std::ofstream(grow, std::ios::binary | std::ios::app) << chunk;
    rows = tail.poll();
    EXPECT_TRUE(rows.error.empty()) << rows.error;
    EXPECT_LE(tail.position().carry.size(), colfmt::kContainerHeaderBytes);
  }
  EXPECT_EQ(tail.position().offset, 128 + 3 * chunk.size());
}

TEST_F(ColfmtTest, ContainerTailRejectsOversizedFrameWithoutBuffering) {
  // A valid header, then a frame header claiming a terabyte: the tail
  // marks the incarnation bad on the header alone instead of buffering
  // toward a payload that cannot be real.
  const std::string empty = path("empty.mtlc");
  colfmt::ContainerWriter writer(empty);
  std::string error;
  ASSERT_TRUE(writer.finish(&error)) << error;
  std::string data = slurp(empty).substr(0, colfmt::kContainerHeaderBytes);
  colfmt::wire::put_u32(data,
                        static_cast<std::uint32_t>(colfmt::FrameKind::kSslBlock));
  colfmt::wire::put_u32(data, 0);
  colfmt::wire::put_u64(data, std::uint64_t{1} << 40);
  data.append(100, 'P');

  const std::string grow = write_file("huge.mtlc", data);
  watch::ContainerTail tail(grow);
  auto rows = tail.poll();
  EXPECT_NE(rows.error.find("malformed frame"), std::string::npos)
      << rows.error;
  EXPECT_TRUE(rows.ssl.empty());
  EXPECT_TRUE(tail.position().carry.empty());

  std::ofstream(grow, std::ios::binary | std::ios::app)
      << std::string(std::size_t{4} << 20, 'P');
  rows = tail.poll();
  EXPECT_TRUE(rows.error.empty()) << rows.error;
  EXPECT_TRUE(tail.position().carry.empty());
  EXPECT_EQ(tail.position().offset, data.size() + (std::size_t{4} << 20));
}

// ---------------------------------------------------------------------------
// Arena-backed checkpoint state

TEST_F(ColfmtTest, CheckpointRoundTripsArenaBackedRecords) {
  // Records whose Strs came out of a container decode (arena-backed,
  // NUL-embedded) survive the watch checkpoint record codecs exactly.
  zeek::X509Record rec = make_x509(7);
  rec.subject = colfmt::Str(std::string("CN=a\0b", 6));
  rec.cert_der =
      colfmt::CertArena::global().intern(std::string("\x00\x01\xfe", 3));
  core::StateWriter w;
  watch::serialize_x509_record(w, rec);
  const std::string blob = w.buffer();
  core::StateReader r(blob);
  const zeek::X509Record back = watch::parse_x509_record(r);
  expect_x509_equal(rec, back, 7);

  zeek::SslRecord ssl = make_ssl(3);
  ssl.server_name = colfmt::Str(std::string("ho\0st", 5));
  core::StateWriter w2;
  watch::serialize_ssl_record(w2, ssl);
  const std::string blob2 = w2.buffer();
  core::StateReader r2(blob2);
  expect_ssl_equal(ssl, watch::parse_ssl_record(r2), 3);
}

}  // namespace
}  // namespace mtlscope
