// Watch checkpoints (DESIGN §13): everything `mtlscope watch` needs to
// resume after SIGTERM or a crash exactly where it left off — the two
// tail positions (inode + absolute byte offset + header + carried
// partial line), the open-window watermarks and buffered rows, the
// first-seen x509 registry feed, the watch ErrorLedger, and the
// cumulative analyzer state as an embedded PR 6 shard-state blob.
//
// The container is framed by the sealed-file codec shared with the
// shard state (core::write_sealed; its own magic and version — the
// embedded blob keeps kStateFormatVersion untouched):
//
//   magic "MTLSWTCH" | u32 watch version | u32 endian sentinel |
//   u32 section count | sections { u32 id, u64 length, payload } |
//   32-byte SHA-256 over everything before the trailer
//
// Unknown versions, unknown/duplicate/missing sections, truncation, and
// digest mismatches are structured errors; a daemon that cannot parse
// its checkpoint starts fresh rather than guessing. A configuration
// fingerprint (window size, roll-up factor, experiment list, seed)
// rides along so a resume under different flags is refused instead of
// silently mixing window geometries.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "mtlscope/core/error_ledger.hpp"
#include "mtlscope/core/state_io.hpp"
#include "mtlscope/ingest/durable_io.hpp"
#include "mtlscope/watch/tail.hpp"
#include "mtlscope/zeek/records.hpp"

namespace mtlscope::watch {

/// Bump on any layout change; readers hard-reject other versions.
/// v2: x509 rows store raw DER bytes instead of base64 text (DESIGN §14).
inline constexpr std::uint32_t kWatchFormatVersion = 2;

struct WatchCheckpoint {
  // --- configuration fingerprint (resume refuses a mismatch) ---
  std::int64_t window_seconds = 3600;
  std::uint32_t rollup_windows = 24;
  std::vector<std::string> experiments;
  std::uint64_t seed = 0;

  // --- scheduler state ---
  bool have_watermark = false;
  std::int64_t watermark_bucket = 0;  ///< bucket of the open window
  std::int64_t watermark_ts = 0;      ///< max record ts seen
  std::vector<zeek::SslRecord> current_rows;  ///< open window buffer
  std::vector<zeek::SslRecord> pending_rows;  ///< held for missing certs
  std::vector<zeek::SslRecord> late_rows;     ///< behind the watermark
  std::int64_t rollup_bucket = 0;
  /// Serialized shard state of the open roll-up window ("" when none).
  std::string rollup_blob;
  /// Serialized finalized cumulative shard state ("" before any close).
  std::string cumulative_blob;
  core::ErrorLedger ledger;
  /// First-seen x509 rows in arrival order (replays phase A first-wins).
  std::vector<zeek::X509Record> x509_seen;
  std::uint64_t ssl_records_seen = 0;
  std::uint64_t windows_emitted = 0;
  std::uint64_t rollups_emitted = 0;

  // --- tail positions ---
  TailPosition ssl_tail;
  TailPosition x509_tail;
};

/// Record encoders, shared with tests and perf_watch.
void serialize_ssl_record(core::StateWriter& w, const zeek::SslRecord& r);
zeek::SslRecord parse_ssl_record(core::StateReader& r);
void serialize_x509_record(core::StateWriter& w, const zeek::X509Record& r);
zeek::X509Record parse_x509_record(core::StateReader& r);

std::string serialize_watch_checkpoint(const WatchCheckpoint& ckpt);

/// Never throws for malformed input; returns nullopt with `error` (when
/// non-null) set to a deterministic message.
std::optional<WatchCheckpoint> parse_watch_checkpoint(
    std::string_view data, std::string* error = nullptr);

/// Atomic durable file wrappers (DESIGN §16): write-to-temp + fsync +
/// rename + parent-directory fsync, so a crash mid-write never leaves a
/// half checkpoint where the next start would find it, and a completed
/// save survives power loss. The result carries the ENOSPC/EIO
/// classification the daemon's degraded mode dispatches on.
ingest::WriteResult save_watch_checkpoint(const std::string& path,
                                          const WatchCheckpoint& ckpt);
std::optional<WatchCheckpoint> load_watch_checkpoint(
    const std::string& path, std::string* error = nullptr);

/// Checkpoint generations (DESIGN §16): the daemon keeps the last
/// `keep` checkpoints as `watch.ckpt.<gen>` instead of rewriting one
/// file. save() writes the next generation atomically and prunes the
/// oldest; load() walks newest→oldest and restores the first file whose
/// SHA-256 trailer verifies, so a torn newest checkpoint degrades to
/// generation N-1 rather than a cold re-read. A legacy un-suffixed
/// `watch.ckpt` (pre-generation daemons) reads as generation 0.
class CheckpointStore {
 public:
  static constexpr const char* kBaseName = "watch.ckpt";

  explicit CheckpointStore(std::string dir, std::uint32_t keep = 3);

  const std::string& dir() const { return dir_; }
  std::uint32_t keep() const { return keep_; }
  /// Generation the next save() will write (last on disk + 1).
  std::uint64_t next_generation() const { return next_generation_; }
  bool has_any() const;

  /// Serializes and atomically publishes generation next_generation(),
  /// then prunes generations beyond `keep`. On failure nothing is
  /// pruned and the generation number is not consumed (the retry
  /// rewrites the same generation).
  ingest::WriteResult save(const WatchCheckpoint& ckpt);

  /// Newest→oldest walk; the first checkpoint that parses (digest OK)
  /// wins. `generation` receives its number, `skipped` the count of
  /// newer unreadable generations stepped over. nullopt with `error`
  /// describing the newest failure when every generation is bad.
  std::optional<WatchCheckpoint> load(std::string* error = nullptr,
                                      std::uint64_t* generation = nullptr,
                                      std::uint32_t* skipped = nullptr);

  /// All generations on disk, ascending: (generation, absolute path).
  /// The legacy un-suffixed file appears as generation 0.
  static std::vector<std::pair<std::uint64_t, std::string>> list(
      const std::string& dir);

 private:
  std::string path_for(std::uint64_t generation) const;
  void prune();

  std::string dir_;
  std::uint32_t keep_;
  std::uint64_t next_generation_ = 1;
};

}  // namespace mtlscope::watch
