// Shard-state serialization (DESIGN §12): round-trips must be lossless
// and canonical (state → bytes → state → bytes is byte-identical), and
// every malformed input — flipped bytes, truncation at any prefix, bad
// magic, unknown versions or section ids, a re-sealed out-of-range field
// value — must fail with a structured error. The sealed-file framing is
// checked once for both of its formats, shard state and watch
// checkpoints, against one table of malformed inputs and against files
// earlier code wrote. The field lists' merge rules are checked one rule
// kind at a time.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "field_equality.hpp"
#include "mtlscope/core/executor.hpp"
#include "mtlscope/core/shard_state.hpp"
#include "mtlscope/core/state_io.hpp"
#include "mtlscope/crypto/sha256.hpp"
#include "mtlscope/gen/generator.hpp"
#include "mtlscope/textclass/classifier.hpp"
#include "mtlscope/util/u32_set.hpp"
#include "mtlscope/watch/checkpoint.hpp"

namespace mtlscope {
namespace {

/// Small enough for every-prefix truncation sweeps, big enough to
/// populate every analyzer section.
core::ShardState folded_state(std::size_t threads = 2) {
  auto model = gen::paper_model(2'000, 600'000);
  model.background_connections = 5'000;
  model.seed = 7;
  gen::TraceGenerator generator(std::move(model));
  auto config = core::PipelineConfig::campus_defaults();
  config.ct = &generator.ct_database();
  core::PipelineExecutor executor(config, threads);
  auto state = executor.fold(generator.generate_dataset());
  state.meta.seed = 7;
  state.meta.cert_scale = 2'000;
  state.meta.conn_scale = 600'000;
  return state;
}

core::ShardState empty_state() {
  core::ShardState state;
  state.pipeline.emplace();
  return state;
}

/// Recomputes the SHA-256 trailer after an intentional mutation, so the
/// parser reaches the section under test instead of the digest check.
std::string refresh_digest(std::string data) {
  const std::size_t payload = data.size() - crypto::Sha256::kDigestSize;
  const auto digest =
      crypto::Sha256::hash(std::string_view(data.data(), payload));
  for (std::size_t i = 0; i < digest.size(); ++i) {
    data[payload + i] = static_cast<char>(digest[i]);
  }
  return data;
}

TEST(StateIo, PrimitivesRoundTrip) {
  core::StateWriter w;
  w.u8(0xAB);
  w.u32(0xDEADBEEF);
  w.u64(0x0102030405060708ULL);
  w.i64(-42);
  w.f64(3.5);
  w.str(std::string_view("hello\0world", 11));  // embedded NUL survives
  const std::string bytes = std::move(w).take();

  core::StateReader r(bytes);
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0102030405060708ULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.f64(), 3.5);
  EXPECT_EQ(r.str(), std::string("hello\0world", 11));
  EXPECT_TRUE(r.done());
}

TEST(StateIo, ReaderOverrunThrowsStructuredError) {
  core::StateWriter w;
  w.u32(1);
  const std::string bytes = std::move(w).take();
  core::StateReader r(bytes);
  r.u32();
  EXPECT_THROW(r.u64(), core::StateError);
  core::StateReader r2(bytes);
  EXPECT_THROW(r2.str(), core::StateError);  // length prefix overruns
}

// --- certificate subnet sets -----------------------------------------------

TEST(U32Set, ValuesNotLayoutDecideEqualityAndOrder) {
  util::U32Set a;
  util::U32Set b;
  std::vector<std::uint32_t> values;
  for (std::uint32_t i = 0; i < 3'000; ++i) values.push_back(i * 2'654'435'761u);
  for (const std::uint32_t v : values) EXPECT_TRUE(a.insert(v));
  for (auto it = values.rbegin(); it != values.rend(); ++it) b.insert(*it);
  EXPECT_FALSE(a.insert(values[7]));
  EXPECT_EQ(a.size(), values.size());
  EXPECT_EQ(a, b);
  EXPECT_TRUE(a.contains(0));
  EXPECT_FALSE(a.contains(1));
  std::sort(values.begin(), values.end());
  EXPECT_EQ(a.sorted(), values);

  util::U32Set c = {5, 0};
  c.merge(util::U32Set{7, 5});
  EXPECT_EQ(c.sorted(), (std::vector<std::uint32_t>{0, 5, 7}));
  EXPECT_FALSE(c == (util::U32Set{0, 5}));
}

/// A CertFacts encoding whose server subnet set is `server_run` (count
/// and values as raw bytes) and whose other fields are defaults.
std::string facts_with_server_run(const std::string& server_run) {
  core::CertFacts facts;
  facts.fuid = "Fsubnets";
  core::StateWriter w;
  core::write_fields(w, facts);
  const std::string bytes = std::move(w).take();
  // Tail: server count, client count, context_sld length (8 bytes each,
  // all zero for these defaults), context_assoc (1 byte).
  const std::size_t tail = 8 + 8 + 8 + 1;
  EXPECT_EQ(bytes.substr(bytes.size() - tail, 24), std::string(24, '\0'));
  return bytes.substr(0, bytes.size() - tail) + server_run +
         bytes.substr(bytes.size() - tail + 8);
}

std::string u32_run(std::uint64_t count,
                    const std::vector<std::uint32_t>& values) {
  core::StateWriter w;
  w.u64(count);
  for (const std::uint32_t v : values) w.u32(v);
  return std::move(w).take();
}

std::string reader_error(const std::string& bytes) {
  core::CertFacts facts;
  core::StateReader r(bytes);
  try {
    core::read_fields(r, facts);
  } catch (const core::StateError& e) {
    return e.what();
  }
  return "";
}

TEST(ShardState, SubnetSetRunMustBeStrictlyIncreasing) {
  EXPECT_EQ(reader_error(facts_with_server_run(u32_run(2, {0x0a000100u,
                                                           0x0a000200u}))),
            "");
  for (const auto& values : {std::vector<std::uint32_t>{3, 1},
                             std::vector<std::uint32_t>{5, 5},
                             std::vector<std::uint32_t>{1, 9, 9, 12}}) {
    const std::string error = reader_error(
        facts_with_server_run(u32_run(values.size(), values)));
    EXPECT_NE(error.find("strictly increasing"), std::string::npos)
        << error;
  }
}

TEST(ShardState, SubnetSetCountBeyondTheBytesFailsCleanly) {
  // The buffer ends after two values; the run claims 2^60 of them.
  std::string bytes =
      facts_with_server_run(u32_run(std::uint64_t{1} << 60, {1, 2}));
  bytes.resize(bytes.size() - (8 + 8 + 1));
  const std::string error = reader_error(bytes);
  EXPECT_NE(error.find("truncated"), std::string::npos) << error;
}

TEST(ShardState, SubnetSetHoldsZeroAndRoundTripsOnceGrown) {
  const std::string with_zero =
      facts_with_server_run(u32_run(2, {0, 0x0a000100u}));
  core::CertFacts zero;
  core::StateReader zr(with_zero);
  core::read_fields(zr, zero);
  EXPECT_TRUE(zr.done());
  EXPECT_EQ(zero.server_subnets.sorted(),
            (std::vector<std::uint32_t>{0, 0x0a000100u}));
  core::StateWriter zw;
  core::write_fields(zw, zero);
  EXPECT_EQ(zw.buffer(), with_zero);

  core::CertFacts grown;
  grown.fuid = "Fgrown";
  std::vector<std::uint32_t> expected;
  for (std::uint32_t i = 0; i < 20'000; ++i) {
    const std::uint32_t v = (i * 2'246'822'519u) & 0xffffff00u;
    grown.server_subnets.insert(v);
    grown.client_subnets.insert(v ^ 0x80000000u);
    expected.push_back(v);
  }
  grown.server_subnets.insert(0xffffff00u);
  expected.push_back(0xffffff00u);
  std::sort(expected.begin(), expected.end());
  expected.erase(std::unique(expected.begin(), expected.end()),
                 expected.end());
  ASSERT_EQ(grown.server_subnets.size(), expected.size());
  EXPECT_EQ(grown.server_subnets.sorted(), expected);

  core::StateWriter w;
  core::write_fields(w, grown);
  core::CertFacts back;
  core::StateReader r(w.buffer());
  core::read_fields(r, back);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(back.server_subnets, grown.server_subnets);
  EXPECT_EQ(back.client_subnets, grown.client_subnets);
  core::StateWriter again;
  core::write_fields(again, back);
  EXPECT_EQ(again.buffer(), w.buffer());
}

TEST(ShardState, PopulatedRoundTripIsLosslessAndCanonical) {
  const auto state = folded_state();
  const std::string bytes = core::serialize_shard_state(state);

  core::StateFileInfo info;
  std::string error;
  auto parsed = core::parse_shard_state(bytes, &info, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(info.format_version, core::kStateFormatVersion);
  EXPECT_EQ(info.bytes, bytes.size());
  EXPECT_EQ(info.digest_hex.size(), 64u);

  // Lossless: spot-check every section's content.
  EXPECT_EQ(parsed->meta.seed, state.meta.seed);
  EXPECT_EQ(parsed->meta.cert_scale, state.meta.cert_scale);
  ASSERT_TRUE(parsed->pipeline.has_value());
  EXPECT_EQ(parsed->pipeline->totals().connections,
            state.pipeline->totals().connections);
  EXPECT_EQ(parsed->pipeline->totals().mutual, state.pipeline->totals().mutual);
  EXPECT_EQ(parsed->pipeline->certificates().size(),
            state.pipeline->certificates().size());
  EXPECT_EQ(parsed->analyzers.prevalence.series().size(),
            state.analyzers.prevalence.series().size());
  EXPECT_EQ(parsed->analyzers.service_ports
                .top(core::Direction::kInbound, true)
                .size(),
            state.analyzers.service_ports.top(core::Direction::kInbound, true)
                .size());
  EXPECT_EQ(parsed->analyzers.dummy_issuers.rows().size(),
            state.analyzers.dummy_issuers.rows().size());
  EXPECT_EQ(parsed->analyzers.serial_collisions.collision_groups().size(),
            state.analyzers.serial_collisions.collision_groups().size());

  // Canonical: re-serialization is byte-identical.
  EXPECT_EQ(core::serialize_shard_state(*parsed), bytes);
}

TEST(ShardState, SerializationIsThreadCountInvariant) {
  const std::string one = core::serialize_shard_state(folded_state(1));
  const std::string four = core::serialize_shard_state(folded_state(4));
  EXPECT_EQ(one, four);
}

TEST(ShardState, EmptyPipelineRoundTrips) {
  const auto state = empty_state();
  const std::string bytes = core::serialize_shard_state(state);
  std::string error;
  auto parsed = core::parse_shard_state(bytes, nullptr, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->pipeline->totals().connections, 0u);
  EXPECT_EQ(core::serialize_shard_state(*parsed), bytes);
}

TEST(ShardState, LedgerReasonsRoundTrip) {
  auto state = empty_state();
  state.ledger.quarantine(
      core::LedgerPhase::kUpgrades,
      core::QuarantinedRecord{core::InputRole::kSsl, 10, 2, 5,
                              "bad column count", "abcd"});
  state.ledger.quarantine(
      core::LedgerPhase::kUpgrades,
      core::QuarantinedRecord{core::InputRole::kSsl, 20, 3, 5,
                              "bad column count", "ef01"});
  state.ledger.quarantine(
      core::LedgerPhase::kRegistry,
      core::QuarantinedRecord{core::InputRole::kX509, 30, 4, 5,
                              "bad timestamp", "2345"});
  state.ledger.count_rows_ok(core::InputRole::kSsl, 100);
  state.ledger.finalize();

  const std::string bytes = core::serialize_shard_state(state);
  std::string error;
  auto parsed = core::parse_shard_state(bytes, nullptr, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  const auto& ssl = parsed->ledger.reasons(core::InputRole::kSsl);
  ASSERT_EQ(ssl.size(), 1u);
  EXPECT_EQ(ssl.at("bad column count"), 2u);
  EXPECT_EQ(parsed->ledger.reasons(core::InputRole::kX509).at("bad timestamp"),
            1u);
  EXPECT_EQ(parsed->ledger.rows_ok_total(), 100u);
  EXPECT_EQ(parsed->ledger.entries().size(), 3u);
  EXPECT_EQ(core::serialize_shard_state(*parsed), bytes);
}

TEST(ShardState, EveryTruncationPrefixFailsCleanly) {
  const std::string bytes = core::serialize_shard_state(empty_state());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    std::string error;
    const auto parsed = core::parse_shard_state(
        std::string_view(bytes.data(), len), nullptr, &error);
    EXPECT_FALSE(parsed.has_value()) << "prefix length " << len;
    EXPECT_FALSE(error.empty()) << "prefix length " << len;
  }
}

// ---------------------------------------------------------------------------
// The sealed-file framing, for both formats

/// A sealed file cut into its 16-byte head (magic, version, endian
/// sentinel), its sections and any bytes between the last section and
/// the trailer, so a test can re-frame it and re-seal it.
struct Framed {
  std::string head;
  std::vector<std::pair<std::uint32_t, std::string>> sections;
  std::string tail;

  static Framed split(const std::string& bytes) {
    core::StateReader r(std::string_view(bytes).substr(
        0, bytes.size() - crypto::Sha256::kDigestSize));
    Framed out;
    out.head = std::string(r.bytes(16));
    const std::uint32_t count = r.u32();
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::uint32_t id = r.u32();
      out.sections.emplace_back(id, std::string(r.bytes(r.u64())));
    }
    out.tail = std::string(r.bytes(r.remaining()));
    return out;
  }

  std::string seal() const {
    core::StateWriter w;
    w.raw(head.data(), head.size());
    w.u32(static_cast<std::uint32_t>(sections.size()));
    for (const auto& [id, payload] : sections) {
      w.u32(id);
      w.u64(payload.size());
      w.raw(payload.data(), payload.size());
    }
    w.raw(tail.data(), tail.size());
    std::string out = std::move(w).take();
    const auto digest = crypto::Sha256::hash(out);
    out.append(reinterpret_cast<const char*>(digest.data()), digest.size());
    return out;
  }
};

struct SealedCase {
  const char* name;
  std::function<std::string(const std::string&)> mutate;
  const char* state_error;
  const char* checkpoint_error;
};

std::string reframe(const std::string& bytes,
                    const std::function<void(Framed&)>& edit) {
  Framed framed = Framed::split(bytes);
  edit(framed);
  return framed.seal();
}

std::string state_error(const std::string& bytes) {
  std::string error;
  EXPECT_FALSE(core::parse_shard_state(bytes, nullptr, &error).has_value());
  return error;
}

std::string checkpoint_error(const std::string& bytes) {
  std::string error;
  EXPECT_FALSE(watch::parse_watch_checkpoint(bytes, &error).has_value());
  return error;
}

TEST(SealedFormats, MalformedInputTable) {
  const std::string state = core::serialize_shard_state(empty_state());
  const std::string checkpoint =
      watch::serialize_watch_checkpoint(watch::WatchCheckpoint{});
  for (const std::string* bytes : {&state, &checkpoint}) {
    ASSERT_EQ(Framed::split(*bytes).seal(), *bytes);  // the helper is exact
  }
  const auto set_byte = [](std::size_t at, char value, bool reseal) {
    return [=](const std::string& bytes) {
      std::string out = bytes;
      out[at] = value;
      return reseal ? reframe(out, [](Framed&) {}) : out;
    };
  };
  const std::vector<SealedCase> cases = {
      {"bad magic", set_byte(0, 'X', false),
       "bad magic: not a mtlscope state file",
       "bad magic: not a mtlscope watch checkpoint"},
      // The version sits right after the magic; it is reported whether
      // or not the digest still matches.
      {"version skew, digest refreshed", set_byte(8, 9, true),
       "unsupported state format version 9 (expected 1)",
       "unsupported watch checkpoint version 9 (expected 2)"},
      {"version skew, stale digest", set_byte(8, 9, false),
       "unsupported state format version 9 (expected 1)",
       "unsupported watch checkpoint version 9 (expected 2)"},
      {"truncated inside the header",
       [](const std::string& bytes) { return bytes.substr(0, 10); },
       "truncated state file: 10 bytes", "truncated checkpoint: 10 bytes"},
      {"truncated before the trailer ends",
       [](const std::string& bytes) { return bytes.substr(0, 40); },
       "truncated state file: no room for the digest trailer",
       "truncated checkpoint: no room for the digest trailer"},
      {"truncated by one byte",
       [](const std::string& bytes) {
         return bytes.substr(0, bytes.size() - 1);
       },
       "state digest mismatch: file corrupted or truncated",
       "checkpoint digest mismatch: file corrupted or truncated"},
      {"flipped byte",
       [](const std::string& bytes) {
         std::string out = bytes;
         out[24] = static_cast<char>(out[24] ^ 0x40);
         return out;
       },
       "state digest mismatch: file corrupted or truncated",
       "checkpoint digest mismatch: file corrupted or truncated"},
      {"big-endian sentinel",
       [](const std::string& bytes) {
         return reframe(bytes, [](Framed& f) {
           f.head.replace(12, 4, "\x01\x02\x03\x04");
         });
       },
       "bad endianness sentinel in state file",
       "bad endianness sentinel in checkpoint"},
      {"unknown section id",
       [](const std::string& bytes) {
         return reframe(bytes, [](Framed& f) { f.sections[0].first = 99; });
       },
       "unknown state section id 99", "unknown checkpoint section id 99"},
      {"duplicate section id",
       [](const std::string& bytes) {
         return reframe(bytes, [](Framed& f) {
           f.sections.insert(f.sections.begin() + 1, f.sections[0]);
         });
       },
       "duplicate state section 'meta'",
       "duplicate checkpoint section 'config'"},
      {"missing section id",
       [](const std::string& bytes) {
         return reframe(bytes, [](Framed& f) { f.sections.pop_back(); });
       },
       "missing state section 'ledger'",
       "missing checkpoint section 'ssl_buffers'"},
      {"section with trailing bytes",
       [](const std::string& bytes) {
         return reframe(bytes,
                        [](Framed& f) { f.sections[0].second += '\0'; });
       },
       "trailing bytes in state section 'meta': 1 unread",
       "trailing bytes in state section 'config': 1 unread"},
      {"bytes after the last section",
       [](const std::string& bytes) {
         return reframe(bytes, [](Framed& f) { f.tail = "!"; });
       },
       "trailing bytes in state section 'container': 1 unread",
       "trailing bytes in state section 'checkpoint container': 1 unread"},
  };
  for (const SealedCase& c : cases) {
    SCOPED_TRACE(c.name);
    EXPECT_EQ(state_error(c.mutate(state)), c.state_error);
    EXPECT_EQ(checkpoint_error(c.mutate(checkpoint)), c.checkpoint_error);
  }
}

std::string read_data_file(const char* name) {
  std::ifstream in(std::string(MTLSCOPE_TEST_DATA_DIR) + "/" + name,
                   std::ios::binary);
  EXPECT_TRUE(in.good()) << name;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// Files written by earlier code (tests/data/README.md): each parses and
// re-serializes to the same bytes, so neither on-disk format can drift.
// shard_state_full_v1.state, written before the field lists, has an
// entry in every section and every count-prefixed run.
TEST(SealedFormats, CommittedFilesRoundTripByteForByte) {
  const std::string state = read_data_file("shard_state_v1.state");
  std::string error;
  const auto parsed_state = core::parse_shard_state(state, nullptr, &error);
  ASSERT_TRUE(parsed_state.has_value()) << error;
  EXPECT_EQ(parsed_state->pipeline->totals().connections, 14u);
  EXPECT_EQ(core::serialize_shard_state(*parsed_state), state);

  const std::string full = read_data_file("shard_state_full_v1.state");
  const auto parsed_full = core::parse_shard_state(full, nullptr, &error);
  ASSERT_TRUE(parsed_full.has_value()) << error;
  EXPECT_EQ(parsed_full->pipeline->certificates().size(), 2'226u);
  EXPECT_EQ(parsed_full->ledger.entries().size(), 67u);
  EXPECT_EQ(parsed_full->ledger.io_notes().size(), 1u);
  EXPECT_EQ(core::serialize_shard_state(*parsed_full), full);

  const std::string checkpoint = read_data_file("watch_checkpoint_v2.ckpt");
  const auto parsed = watch::parse_watch_checkpoint(checkpoint, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->x509_seen.size(), 13u);
  EXPECT_EQ(parsed->current_rows.size(), 1u);
  ASSERT_FALSE(parsed->cumulative_blob.empty());
  EXPECT_EQ(watch::serialize_watch_checkpoint(*parsed), checkpoint);
  const auto cumulative =
      core::parse_shard_state(parsed->cumulative_blob, nullptr, &error);
  ASSERT_TRUE(cumulative.has_value()) << error;
  EXPECT_EQ(core::serialize_shard_state(*cumulative), parsed->cumulative_blob);
}

// The checkpoint fields its codec lists by hand go through the checked
// reader too. A re-sealed copy of the committed checkpoint with a bool
// byte of 2, a port past 65535 or an int field past INT_MAX used to
// parse and re-serialize to other bytes; now each is refused, naming
// the field.
TEST(SealedFormats, CheckpointRefusesOutOfRangeFieldValues) {
  const std::string checkpoint = read_data_file("watch_checkpoint_v2.ckpt");
  std::string error;
  const auto parsed = watch::parse_watch_checkpoint(checkpoint, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  ASSERT_EQ(parsed->current_rows.size(), 1u);
  ASSERT_FALSE(parsed->x509_seen.empty());
  const zeek::SslRecord& row = parsed->current_rows[0];
  // ssl_buffers (section id 9) opens with the current rows: a u64 count,
  // then the row's ts, uid, orig_h, orig_p, resp_h, resp_p, version,
  // server_name and established; strings are a u64 length + bytes.
  const std::size_t orig_p =
      8 + 8 + 8 + row.uid.size() + 8 + row.orig_h.size();
  const std::size_t resp_p = orig_p + 4 + 8 + row.resp_h.size();
  const std::size_t established =
      resp_p + 4 + 8 + row.version.size() + 8 + row.server_name.size();
  // x509_seen (section id 8): a u64 count, then the first row's fuid and
  // version (an i64 read into an int).
  const std::size_t x509_version = 8 + 8 + parsed->x509_seen[0].fuid.size();
  core::StateWriter port;
  port.u32(70'000);
  core::StateWriter wide;
  wide.i64(std::int64_t{1} << 40);
  const auto poke = [&](std::uint32_t section, std::size_t at,
                        const std::string& bytes) {
    return reframe(checkpoint, [&](Framed& f) {
      for (auto& [id, payload] : f.sections) {
        if (id == section) payload.replace(at, bytes.size(), bytes);
      }
    });
  };
  struct Poison {
    std::uint32_t section;
    std::size_t at;
    std::string bytes;
    const char* error;
  };
  // The scheduler section (id 4) opens with have_watermark.
  const Poison cases[] = {
      {4, 0, "\x02",
       "bad value 2 in state field 'scheduler.have_watermark' (bool)"},
      {9, established, "\x02",
       "bad value 2 in state field 'ssl_record.established' (bool)"},
      {9, orig_p, port.buffer(),
       "bad value 70000 in state field 'ssl_record.orig_p' (uint16)"},
      {9, resp_p, port.buffer(),
       "bad value 70000 in state field 'ssl_record.resp_p' (uint16)"},
      {8, x509_version, wide.buffer(),
       "bad value 1099511627776 in state field 'x509_record.version' (int)"},
  };
  for (const Poison& c : cases) {
    SCOPED_TRACE(c.error);
    const std::string poisoned = poke(c.section, c.at, c.bytes);
    ASSERT_NE(poisoned, checkpoint);
    EXPECT_NE(checkpoint_error(poisoned).find(c.error), std::string::npos)
        << checkpoint_error(poisoned);
  }
}

// A re-sealed state file can claim any entry count: 2^60 quarantined
// records or io notes must end in a structured error, not a
// std::length_error or bad_alloc from the reservation ahead of the loop.
TEST(ShardState, HugeEntryCountWithValidDigestFailsCleanly) {
  const std::string bytes = core::serialize_shard_state(empty_state());
  // The ledger is the last section: its entry count, then (no entries)
  // its io-note count, then the rest of the ledger and the digest.
  core::StateWriter ledger;
  core::write_fields(ledger, core::ErrorLedger());
  const std::size_t entries_at =
      bytes.size() - crypto::Sha256::kDigestSize - ledger.buffer().size();
  for (const std::size_t at : {entries_at, entries_at + 8}) {
    std::string hostile = bytes;
    for (int i = 0; i < 8; ++i) {
      ASSERT_EQ(hostile[at + i], '\0') << "layout drifted at " << at;
      hostile[at + i] = static_cast<char>((std::uint64_t{1} << 60) >> (8 * i));
    }
    std::string error;
    EXPECT_FALSE(
        core::parse_shard_state(refresh_digest(hostile), nullptr, &error)
            .has_value());
    EXPECT_NE(error.find("truncated"), std::string::npos) << error;
  }
}

// The pipeline section ends with two retired fields, the counts of the
// former mid-stream interception candidates and of their reconciliation
// ledger. They are always written empty; a re-sealed file claiming an
// entry in either must be rejected, not silently dropped, because
// accepted state re-serializes byte-identically.
TEST(ShardState, NonEmptyRetiredPipelineFieldIsRejected) {
  const std::string bytes = core::serialize_shard_state(empty_state());
  // Header: magic(8) + version(4) + endian(4) + count(4); then per
  // section: id u32, payload length u64, payload. Meta comes first.
  const auto u64_at = [&bytes](std::size_t at) {
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i) {
      v = (v << 8) | static_cast<unsigned char>(bytes[at + i]);
    }
    return v;
  };
  const std::size_t pipeline_at = 20 + 12 + u64_at(24);
  ASSERT_EQ(bytes[pipeline_at], 2) << "pipeline is section 2";
  const std::size_t pipeline_end =
      pipeline_at + 12 + u64_at(pipeline_at + 4);
  const struct {
    std::size_t at;
    const char* field;
  } kRetired[] = {{pipeline_end - 16, "interception candidates"},
                  {pipeline_end - 8, "reconciliation ledger"}};
  for (const auto& retired : kRetired) {
    SCOPED_TRACE(retired.field);
    ASSERT_EQ(u64_at(retired.at), 0u);
    std::string hostile = bytes;
    hostile[retired.at] = 1;
    hostile = refresh_digest(hostile);
    const std::string expected = std::string("retired pipeline field '") +
                                 retired.field + "' is not empty";
    for (int attempt = 0; attempt < 2; ++attempt) {
      std::string error;
      EXPECT_FALSE(
          core::parse_shard_state(hostile, nullptr, &error).has_value());
      EXPECT_EQ(error, expected);
    }
  }
}

TEST(ShardState, MetaCompatibilityGatesReduce) {
  core::ShardStateMeta a;
  a.seed = 1;
  a.cert_scale = 100;
  a.conn_scale = 50'000;
  core::ShardStateMeta b = a;
  EXPECT_TRUE(core::compatible_meta(a, b));
  b.ssl_log = "other-slice.log";  // paths legitimately differ
  EXPECT_TRUE(core::compatible_meta(a, b));
  b.seed = 2;
  EXPECT_FALSE(core::compatible_meta(a, b));
  b = a;
  b.cert_scale = 200;
  EXPECT_FALSE(core::compatible_meta(a, b));
  b = a;
  b.file_mode = true;
  EXPECT_FALSE(core::compatible_meta(a, b));

  EXPECT_EQ(core::describe_meta(a),
            "mode=synthetic seed=1 cert_scale=100 conn_scale=50000");
  EXPECT_EQ(core::describe_meta(b),
            "mode=file seed=1 cert_scale=100 conn_scale=50000");
}

TEST(ShardState, MergeAccumulatesAndStaysCanonical) {
  auto whole = folded_state();
  auto a = folded_state();
  auto b = empty_state();
  b.meta = a.meta;
  a.merge(std::move(b));
  a.pipeline->finalize();
  a.ledger.finalize();
  // Merging an empty compatible shard is an identity on the serialized
  // canonical form.
  EXPECT_EQ(core::serialize_shard_state(a), core::serialize_shard_state(whole));
}

TEST(ShardState, SaveLoadRoundTripsThroughDisk) {
  const auto state = folded_state();
  const std::string path = ::testing::TempDir() + "/mtlscope_state_test.state";
  core::StateFileInfo saved;
  std::string error;
  ASSERT_TRUE(core::save_shard_state(path, state, &saved, &error)) << error;
  core::StateFileInfo loaded;
  auto back = core::load_shard_state(path, &loaded, &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(saved.digest_hex, loaded.digest_hex);
  EXPECT_EQ(saved.bytes, loaded.bytes);
  EXPECT_EQ(core::serialize_shard_state(*back),
            core::serialize_shard_state(state));
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Field lists: the checked reader and the merge rules (DESIGN §12)

/// One connection for hand-fed analyzers; `client` and `server` are the
/// leaves (either may be null).
core::EnrichedConnection connection(const zeek::SslRecord& ssl,
                                    util::UnixSeconds ts,
                                    core::Direction direction,
                                    const core::CertFacts* client,
                                    const core::CertFacts* server) {
  core::EnrichedConnection conn;
  conn.ssl = &ssl;
  conn.ts = ts;
  conn.direction = direction;
  conn.established = true;
  conn.mutual = true;
  conn.client_key = 0x0a010203u;
  conn.client_leaf = client;
  conn.server_leaf = server;
  conn.sni = "svc.example.com";
  conn.sld = "example.com";
  conn.tld = "com";
  return conn;
}

zeek::SslRecord ssl_row() {
  zeek::SslRecord ssl;
  ssl.orig_h = "10.1.2.3";
  ssl.resp_h = "192.0.2.7";
  ssl.resp_p = 443;
  ssl.established = true;
  return ssl;
}

core::CertFacts leaf(const char* fuid) {
  core::CertFacts facts;
  facts.fuid = fuid;
  facts.serial_hex = "01";
  facts.issuer_org = "Internet Widgits Pty Ltd";
  facts.issuer_category = core::IssuerCategory::kPrivateDummy;
  return facts;
}

void add_cert(core::ShardState& state, const core::CertFacts& facts) {
  core::Pipeline::CertMap certs;
  certs.emplace(facts.fuid, facts);
  state.pipeline->backfill_certificates(certs);
}

/// A re-sealed state file of `fill(state, true)` in which the `run`-th
/// run of bytes that differ from `fill(state, false)`'s encoding (-1: the
/// last run) is overwritten with `value`, `width` bytes little-endian.
/// Two legal values of one field differ exactly where that field sits.
std::string overwrite_field(
    const std::function<void(core::ShardState&, bool)>& fill, int run,
    std::uint64_t value, std::size_t width) {
  auto a = empty_state();
  auto b = empty_state();
  fill(a, false);
  fill(b, true);
  const std::string base = core::serialize_shard_state(b);
  const std::string other = core::serialize_shard_state(a);
  const std::size_t end =
      std::min(base.size(), other.size()) - crypto::Sha256::kDigestSize;
  std::vector<std::size_t> starts;
  for (std::size_t i = 0; i < end; ++i) {
    if (base[i] != other[i] && (i == 0 || base[i - 1] == other[i - 1])) {
      starts.push_back(i);
    }
  }
  EXPECT_FALSE(starts.empty());
  if (starts.empty()) return base;
  const std::size_t at = run < 0 ? starts.back() : starts.at(run);
  std::string hostile = base;
  for (std::size_t i = 0; i < width; ++i) {
    hostile[at + i] = static_cast<char>(value >> (8 * i));
  }
  return refresh_digest(hostile);
}

/// Fills a certificate whose one field under test depends on `alt`.
std::function<void(core::ShardState&, bool)> cert_field(
    const std::function<void(core::CertFacts&, bool)>& set) {
  return [set](core::ShardState& state, bool alt) {
    core::CertFacts facts = leaf("Fhostile");
    set(facts, alt);
    add_cert(state, facts);
  };
}

/// One hand-built mutual connection and its two leaves. Not copyable:
/// the connection points at the row and the leaves.
struct Hand {
  Hand() = default;
  Hand(const Hand&) = delete;
  Hand& operator=(const Hand&) = delete;

  zeek::SslRecord ssl = ssl_row();
  core::CertFacts client = leaf("Fclient");
  core::CertFacts server = leaf("Fserver");
  core::EnrichedConnection conn = connection(
      ssl, 1'660'000'000, core::Direction::kInbound, &client, &server);
};

/// Feeds one connection to one analyzer; `set` shapes it by `alt`.
template <class A>
std::function<void(core::ShardState&, bool)> observed(
    A core::AnalyzerSet::*analyzer,
    const std::function<void(Hand&, bool)>& set) {
  return [analyzer, set](core::ShardState& state, bool alt) {
    Hand hand;
    set(hand, alt);
    (state.analyzers.*analyzer).observe(hand.conn);
  };
}

TEST(FieldLists, OutOfRangeValuesNameTheirField) {
  constexpr std::uint64_t kEnum = 200;
  constexpr std::uint64_t kBool = 2;
  constexpr std::uint64_t kWide = std::uint64_t{1} << 32;  // outside int
  using Facts = core::CertFacts;
  using Category = core::IssuerCategory;
  using Assoc = core::ServerAssociation;
  using AS = core::AnalyzerSet;
  const auto flag = [](bool Facts::*member) {
    return cert_field([member](Facts& f, bool alt) { f.*member = alt; });
  };
  const auto count = [](int Facts::*member) {
    return cert_field([member](Facts& f, bool alt) { f.*member = alt; });
  };
  const auto outbound = [](Hand& h, bool) {
    h.conn.direction = core::Direction::kOutbound;
  };
  const auto flip_direction = [](Hand& h, bool alt) {
    if (alt) h.conn.direction = core::Direction::kOutbound;
  };
  const auto later_month = [](Hand& h, bool alt) {
    if (alt) h.conn.ts = 1'665'000'000;
  };
  // A dummy client leaf on a public server, grouped the same way in
  // either direction.
  const auto dummy_client = [](Hand& h, bool alt) {
    h.server.issuer_category = Category::kPublic;
    h.conn.tld = h.conn.sld;
    if (alt) h.conn.direction = core::Direction::kOutbound;
  };
  // One dummy leaf: the client's, or with `alt` the server's.
  const auto dummy_side = [](Hand& h, bool alt) {
    (alt ? h.server : h.client).issuer_category = Category::kPublic;
  };
  struct Case {
    const char* field;
    std::function<void(core::ShardState&, bool)> fill;
    int run;  // which run of differing bytes holds the field
    std::uint64_t value;
    std::size_t width;
  };
  const std::vector<Case> cases = {
      // Enum bytes.
      {"pipeline.certificates.issuer_class",
       cert_field([](Facts& f, bool alt) {
         f.issuer_class = alt ? trust::IssuerClass::kPrivate
                              : trust::IssuerClass::kPublic;
       }),
       0, kEnum, 1},
      {"pipeline.certificates.issuer_category",
       cert_field([](Facts& f, bool alt) {
         f.issuer_category =
             alt ? Category::kPrivateCorporation : Category::kPublic;
       }),
       0, kEnum, 1},
      {"pipeline.certificates.cn_type", cert_field([](Facts& f, bool alt) {
         f.cn_type = alt ? textclass::InfoType::kIp
                         : textclass::InfoType::kDomain;
       }),
       0, kEnum, 1},
      {"pipeline.certificates.san_dns_types",
       cert_field([](Facts& f, bool alt) {
         f.san_dns_types = {alt ? textclass::InfoType::kIp
                                : textclass::InfoType::kDomain};
       }),
       0, kEnum, 1},
      {"pipeline.certificates.context_assoc",
       cert_field([](Facts& f, bool alt) {
         f.context_assoc =
             alt ? Assoc::kUniversityServer : Assoc::kUniversityHealth;
       }),
       0, kEnum, 1},
      {"ledger.entries.input",
       [](core::ShardState& state, bool alt) {
         state.ledger.quarantine(
             core::LedgerPhase::kUpgrades,
             {alt ? core::InputRole::kX509 : core::InputRole::kSsl, 10, 2, 5,
              "bad column count", "abcd"});
       },
       0, kEnum, 1},
      {"inbound_assoc.acc", observed(&AS::inbound_assoc,
                                     [](Hand& h, bool alt) {
                                       h.conn.assoc =
                                           alt ? Assoc::kUniversityServer
                                               : Assoc::kUniversityHealth;
                                     }),
       0, kEnum, 1},
      {"inbound_assoc.acc.clients_by_category",
       observed(&AS::inbound_assoc,
                [](Hand& h, bool alt) {
                  h.client.issuer_category =
                      alt ? Category::kPrivateCorporation : Category::kPublic;
                }),
       0, kEnum, 1},
      {"outbound_flows.flows.server_class",
       observed(&AS::outbound_flows,
                [outbound](Hand& h, bool alt) {
                  outbound(h, alt);
                  h.server.issuer_class = alt ? trust::IssuerClass::kPrivate
                                              : trust::IssuerClass::kPublic;
                }),
       0, kEnum, 8},
      {"outbound_flows.flows.client_category",
       observed(&AS::outbound_flows,
                [outbound](Hand& h, bool alt) {
                  outbound(h, alt);
                  h.client.issuer_category =
                      alt ? Category::kPrivateCorporation : Category::kPublic;
                }),
       0, kEnum, 8},
      // Dummy-issuer and serial-collision keys (run 0), then rows (run 1).
      {"dummy_issuer.rows.direction", observed(&AS::dummy_issuers,
                                               dummy_client),
       0, kEnum, 1},
      {"dummy_issuer.rows.direction", observed(&AS::dummy_issuers,
                                               dummy_client),
       1, kEnum, 1},
      {"serial_collision.groups.direction",
       observed(&AS::serial_collisions, flip_direction), 0, kEnum, 8},
      {"serial_collision.groups.direction",
       observed(&AS::serial_collisions, flip_direction), 1, kEnum, 1},
      // Bool bytes.
      {"meta.file_mode",
       [](core::ShardState& state, bool alt) { state.meta.file_mode = alt; },
       0, kBool, 1},
      {"pipeline.certificates.campus_issuer", flag(&Facts::campus_issuer), 0,
       kBool, 1},
      {"pipeline.certificates.flagged_interception",
       flag(&Facts::flagged_interception), 0, kBool, 1},
      {"pipeline.certificates.used_as_server", flag(&Facts::used_as_server),
       0, kBool, 1},
      {"pipeline.certificates.used_as_client", flag(&Facts::used_as_client),
       0, kBool, 1},
      {"pipeline.certificates.used_in_mutual", flag(&Facts::used_in_mutual),
       0, kBool, 1},
      {"pipeline.certificates.seen_inbound", flag(&Facts::seen_inbound), 0,
       kBool, 1},
      {"pipeline.certificates.seen_outbound", flag(&Facts::seen_outbound), 0,
       kBool, 1},
      {"pipeline.certificates.seen_outbound_with_sni",
       flag(&Facts::seen_outbound_with_sni), 0, kBool, 1},
      {"pipeline.certificates.client_use_while_expired",
       flag(&Facts::client_use_while_expired), 0, kBool, 1},
      {"dummy_issuer.rows.client_side",
       observed(&AS::dummy_issuers, dummy_side), 0, kBool, 1},
      {"dummy_issuer.rows.client_side",
       observed(&AS::dummy_issuers, dummy_side), 1, kBool, 1},
      {"shared_cert.same_conn.public_issuer",
       observed(&AS::shared_certs,
                [](Hand& h, bool alt) {
                  h.server.issuer_class = alt ? trust::IssuerClass::kPublic
                                              : trust::IssuerClass::kPrivate;
                  h.conn.client_leaf = &h.server;
                }),
       0, kBool, 1},
      // The row key spells the side too (run 0); the row's flag is run 1.
      {"incorrect_date.rows.client_side",
       observed(&AS::incorrect_dates,
                [](Hand& h, bool alt) {
                  h.client.validity = h.server.validity = {0, 1};
                  (alt ? h.client : h.server).validity = {5, 5};
                }),
       1, kBool, 1},
      {"ledger.samples_truncated",
       [](core::ShardState& state, bool alt) {
         for (std::size_t i = 0;
              i < core::ErrorLedger::kMaxStoredPerRole + (alt ? 1 : 0); ++i) {
           state.ledger.quarantine(
               core::LedgerPhase::kRegistry,
               {core::InputRole::kX509, i, i, 5, "bad certificate", "ef"});
         }
       },
       -1, kBool, 1},
      // i64 values read into an int.
      {"pipeline.certificates.version", count(&Facts::version), 0, kWide, 8},
      {"pipeline.certificates.key_bits", count(&Facts::key_bits), 0, kWide,
       8},
      {"pipeline.certificates.san_email_count",
       count(&Facts::san_email_count), 0, kWide, 8},
      {"pipeline.certificates.san_uri_count", count(&Facts::san_uri_count),
       0, kWide, 8},
      {"pipeline.certificates.san_ip_count", count(&Facts::san_ip_count), 0,
       kWide, 8},
      {"prevalence.months", observed(&AS::prevalence, later_month), 0, kWide,
       8},
      {"prevalence.months.month_index", observed(&AS::prevalence, later_month),
       1, kWide, 8},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.field) + " run " + std::to_string(c.run));
    const std::string error =
        state_error(overwrite_field(c.fill, c.run, c.value, c.width));
    EXPECT_NE(error.find("in state field '" + std::string(c.field) + "'"),
              std::string::npos)
        << error;
    EXPECT_NE(error.find("bad value " + std::to_string(c.value)),
              std::string::npos)
        << error;
  }
}

// The reduce path: a state file re-sealed over one out-of-range byte
// fails to load with an error naming the field. Both values once reached
// an array index (ErrorLedger::finalize, analyze_info_types).
TEST(FieldLists, PoisonedFilesFailToLoad) {
  const std::string path = ::testing::TempDir() + "/mtlscope_poisoned.state";
  const auto load_error = [&path](const std::string& bytes) {
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
    std::string error;
    EXPECT_FALSE(core::load_shard_state(path, nullptr, &error).has_value());
    return error;
  };
  const std::string committed = read_data_file("shard_state_v1.state");
  const auto committed_plus =
      [&committed](const std::function<void(core::ShardState&, bool)>& fill) {
        return [&committed, fill](core::ShardState& state, bool alt) {
          state = *core::parse_shard_state(committed);
          fill(state, alt);
        };
      };

  EXPECT_EQ(
      load_error(overwrite_field(
          committed_plus([](core::ShardState& state, bool alt) {
            state.ledger.quarantine(
                core::LedgerPhase::kUpgrades,
                {alt ? core::InputRole::kX509 : core::InputRole::kSsl, 10, 2,
                 5, "bad column count", "abcd"});
          }),
          0, 200, 1)),
      "bad value 200 in state field 'ledger.entries.input' (enum of 2 "
      "values)");

  core::CertFacts poisoned = leaf("Fpoisoned");
  poisoned.cn_type = static_cast<textclass::InfoType>(200);
  auto state = *core::parse_shard_state(committed);
  add_cert(state, poisoned);
  EXPECT_EQ(load_error(core::serialize_shard_state(state)),
            "bad value 200 in state field 'pipeline.certificates.cn_type' "
            "(enum of 10 values)");
  std::remove(path.c_str());
}

// One field per merge rule kind, folded through merge_fields.
TEST(FieldLists, FieldRulesFoldAsDeclared) {
  core::CertFacts a;
  a.fuid = "F1";
  a.key_bits = 2048;                    // keep
  a.issuer_class = trust::IssuerClass::kPrivate;
  a.issuer_category = core::IssuerCategory::kPrivateOthers;
  a.used_as_server = true;              // or
  a.connection_count = 3;               // sum
  a.first_seen = 1'000;                 // min
  a.last_seen = 2'000;                  // max
  a.server_subnets = {0x0a000100u};     // union
  a.context_assoc = core::ServerAssociation::kNone;  // first set wins
  a.context_sld = "first.com";
  core::CertFacts b = a;
  b.key_bits = 1024;
  b.issuer_class = trust::IssuerClass::kPublic;  // the upgrade
  b.issuer_category = core::IssuerCategory::kPublic;
  b.used_as_server = false;
  b.used_as_client = true;
  b.connection_count = 2;
  b.first_seen = 500;
  b.last_seen = 1'500;
  b.server_subnets = {0x0a000200u};
  b.context_assoc = core::ServerAssociation::kGlobus;
  b.context_sld = "second.com";
  core::merge_fields(a, std::move(b));
  EXPECT_EQ(a.key_bits, 2048);
  EXPECT_EQ(a.issuer_class, trust::IssuerClass::kPublic);
  EXPECT_EQ(a.issuer_category, core::IssuerCategory::kPublic);
  EXPECT_TRUE(a.used_as_server);
  EXPECT_TRUE(a.used_as_client);
  EXPECT_EQ(a.connection_count, 5u);
  EXPECT_EQ(a.first_seen, 500);
  EXPECT_EQ(a.last_seen, 2'000);
  EXPECT_EQ(a.server_subnets.sorted(),
            (std::vector<std::uint32_t>{0x0a000100u, 0x0a000200u}));
  EXPECT_EQ(a.context_assoc, core::ServerAssociation::kGlobus);
  EXPECT_EQ(a.context_sld, "first.com");

  // The upgrade only ever goes private → public, category in tow.
  core::CertFacts later_private = a;
  later_private.issuer_class = trust::IssuerClass::kPrivate;
  later_private.issuer_category = core::IssuerCategory::kPrivateDummy;
  core::merge_fields(a, std::move(later_private));
  EXPECT_EQ(a.issuer_class, trust::IssuerClass::kPublic);
  EXPECT_EQ(a.issuer_category, core::IssuerCategory::kPublic);

  // Keyed rows: a missing key moves in, a present one folds field by
  // field; derived tuple counts are the sizes of the united tuple sets.
  const zeek::SslRecord ssl = ssl_row();
  core::CertFacts client = leaf("Fclient");
  client.version = 1;
  const core::CertFacts server = leaf("Fserver");
  const auto conn = [&](util::UnixSeconds ts, core::Direction direction) {
    return connection(ssl, ts, direction, &client, &server);
  };
  core::AnalyzerSet first;
  core::AnalyzerSet second;
  first.observe(conn(1'660'000'000, core::Direction::kInbound));
  second.observe(conn(1'650'000'000, core::Direction::kInbound));
  second.observe(conn(1'670'000'000, core::Direction::kOutbound));
  core::AnalyzerSet serial;
  serial.observe(conn(1'660'000'000, core::Direction::kInbound));
  serial.observe(conn(1'650'000'000, core::Direction::kInbound));
  serial.observe(conn(1'670'000'000, core::Direction::kOutbound));
  core::merge_fields(first, std::move(second));
  EXPECT_EQ(testing_support::field_differences(first, serial), "");
  const auto& weak = first.dummy_issuers.weak_params();
  EXPECT_EQ(weak.v1_tuples, weak.v1_tuple_set.size());
  EXPECT_EQ(weak.v1_tuples, 1u);  // the same tuple in both shards
  const auto rows = first.dummy_issuers.rows();
  ASSERT_EQ(rows.size(), 4u);  // client and server side, both directions
  std::uint64_t connections = 0;
  for (const auto& row : rows) connections += row.connections;
  EXPECT_EQ(connections, 6u);

  // Capped append (I/O notes), append (samples), join (slice paths).
  core::ShardState x = empty_state();
  core::ShardState y = empty_state();
  x.meta.ssl_log = "a/ssl.log";
  y.meta.ssl_log = "b/ssl.log";
  x.meta.parse_bytes = 10;
  y.meta.parse_bytes = 5;
  for (std::size_t i = 0; i < core::ErrorLedger::kMaxIoNotes; ++i) {
    x.ledger.note_io(core::InputRole::kSsl, "x" + std::to_string(i));
    y.ledger.note_io(core::InputRole::kX509, "y" + std::to_string(i));
  }
  y.ledger.quarantine(core::LedgerPhase::kUpgrades,
                      {core::InputRole::kSsl, 7, 1, 3, "bad", "00"});
  x.merge(std::move(y));
  EXPECT_EQ(x.meta.ssl_log, "a/ssl.log,b/ssl.log");
  EXPECT_EQ(x.meta.parse_bytes, 15u);
  EXPECT_EQ(x.ledger.io_events(), 2 * core::ErrorLedger::kMaxIoNotes);
  ASSERT_EQ(x.ledger.io_notes().size(), core::ErrorLedger::kMaxIoNotes);
  EXPECT_EQ(x.ledger.io_notes().back(), "ssl: x7");
  EXPECT_EQ(x.ledger.entries().size(), 1u);
}

// The equality names the fields that differ.
TEST(FieldLists, DifferencesNameTheField) {
  core::CertFacts a = leaf("F1");
  core::CertFacts b = a;
  EXPECT_EQ(testing_support::field_differences(a, b), "");
  b.connection_count = 4;
  b.client_subnets.insert(7);
  EXPECT_EQ(testing_support::field_differences(a, b),
            "connection_count\nclient_subnets\n");
}

TEST(ShardState, LoadMissingFileReportsError) {
  std::string error;
  EXPECT_FALSE(core::load_shard_state("/nonexistent/mtlscope.state", nullptr,
                                      &error)
                   .has_value());
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace mtlscope
