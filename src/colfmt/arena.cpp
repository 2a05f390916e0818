#include "mtlscope/colfmt/arena.hpp"

#include <atomic>

namespace mtlscope::colfmt {

namespace {

/// One front-cache entry: the bytes `data[0, size)` are interned in the
/// arena whose id is `arena` (0 = empty; ids start at 1).
struct FrontSlot {
  std::uint64_t arena = 0;
  const char* data = nullptr;
  std::uint32_t size = 0;
};

constexpr std::size_t kFrontSlots = 4096;  // 96 KiB per thread
thread_local FrontSlot front_cache[kFrontSlots];

std::atomic<std::uint64_t> next_arena_id{1};

}  // namespace

StringArena::StringArena(std::size_t chunk_bytes)
    : chunk_bytes_(chunk_bytes),
      id_(next_arena_id.fetch_add(1, std::memory_order_relaxed)) {}

Str::Str(std::string_view s) : Str(StringArena::global().intern(s)) {}

StringArena& StringArena::global() {
  static StringArena* arena = new StringArena();  // never destroyed:
  return *arena;  // interned views must outlive all static consumers
}

CertArena& CertArena::global() {
  static CertArena* arena = new CertArena();
  return *arena;
}

Str StringArena::intern(std::string_view s) {
  if (s.empty()) return Str("", 0);

  const std::size_t hash = ViewHash{}(s);
  // The shard index uses the low bits; the slot index uses the rest.
  FrontSlot& slot = front_cache[(hash / kShardCount) % kFrontSlots];
  if (slot.arena == id_ && slot.size == s.size() &&
      std::memcmp(slot.data, s.data(), s.size()) == 0) {
    return Str(slot.data, slot.size);
  }
  const Str interned = intern_locked(s, hash);
  slot = FrontSlot{id_, interned.data(),
                   static_cast<std::uint32_t>(interned.size())};
  return interned;
}

Str StringArena::intern_locked(std::string_view s, std::size_t hash) {
  Shard& shard = shards_[hash % kShardCount];
  std::lock_guard<std::mutex> lock(shard.mu);

  const auto it = shard.set.find(s);
  if (it != shard.set.end()) {
    return Str(it->data(), static_cast<std::uint32_t>(it->size()));
  }

  // Miss: copy into stable storage (+1 for the NUL that makes c_str()
  // valid). Oversize strings get a dedicated chunk so a >64 KiB DN
  // never forces the bump allocator's chunk size up.
  const std::size_t need = s.size() + 1;
  if (need > shard.remaining) {
    const std::size_t chunk = need > chunk_bytes_ ? need : chunk_bytes_;
    shard.chunks.push_back(std::make_unique<char[]>(chunk));
    shard.cursor = shard.chunks.back().get();
    shard.remaining = chunk;
    shard.stats.chunk_bytes += chunk;
  }
  char* dst = shard.cursor;
  std::memcpy(dst, s.data(), s.size());
  dst[s.size()] = '\0';
  shard.cursor += need;
  shard.remaining -= need;

  shard.set.insert(std::string_view(dst, s.size()));
  ++shard.stats.strings;
  shard.stats.bytes += s.size();
  return Str(dst, static_cast<std::uint32_t>(s.size()));
}

StringArena::Stats StringArena::stats() const {
  Stats total;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total.strings += shard.stats.strings;
    total.bytes += shard.stats.bytes;
    total.chunk_bytes += shard.stats.chunk_bytes;
  }
  return total;
}

}  // namespace mtlscope::colfmt
