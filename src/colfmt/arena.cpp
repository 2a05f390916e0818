#include "mtlscope/colfmt/arena.hpp"

#include <new>

#include "mtlscope/util/keyed_hash.hpp"

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

constexpr std::size_t kFirstTableSlots = 64;

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

StringArena::Table::Table(std::size_t capacity)
    : mask(capacity - 1),
      slots(std::make_unique<std::atomic<const Entry*>[]>(capacity)) {}

const StringArena::Entry* StringArena::Table::find(std::string_view s,
                                                   std::uint32_t hash) const {
  for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
    const Entry* e = slots[i].load(std::memory_order_acquire);
    if (e == nullptr) return nullptr;
    if (e->hash == hash && e->size == s.size() &&
        std::memcmp(e->bytes(), s.data(), s.size()) == 0) {
      return e;
    }
  }
}

void StringArena::Table::place(const Entry* e) {
  std::size_t i = e->hash & mask;
  while (slots[i].load(std::memory_order_relaxed) != nullptr) {
    i = (i + 1) & mask;
  }
  slots[i].store(e, std::memory_order_release);
}

Str StringArena::intern(std::string_view s) {
  if (s.empty()) return Str("", 0);

  // The top bits pick the shard, the middle bits the front-cache slot
  // and the low 32 bits (kept in the entry header) the index slot.
  const std::uint64_t hash = util::keyed_hash(s);
  FrontSlot& slot = front_cache[(hash >> 32) % kFrontSlots];
  if (slot.arena == id_ && slot.size == s.size() &&
      std::memcmp(slot.data, s.data(), s.size()) == 0) {
    return Str(slot.data, slot.size);
  }
  static_assert(kShardCount == 16, "the shard is the hash's top 4 bits");
  Shard& shard = shards_[hash >> 60];
  const auto low = static_cast<std::uint32_t>(hash);
  const Table* table = shard.table.load(std::memory_order_acquire);
  const Entry* e = table != nullptr ? table->find(s, low) : nullptr;
  const Str interned = e != nullptr ? Str(e->bytes(), e->size)
                                    : intern_slow(shard, s, low);
  slot = FrontSlot{id_, interned.data(),
                   static_cast<std::uint32_t>(interned.size())};
  return interned;
}

Str StringArena::intern_slow(Shard& shard, std::string_view s,
                             std::uint32_t hash) {
  std::lock_guard<std::mutex> lock(shard.mu);
  Table* current = shard.tables.empty() ? nullptr : shard.tables.back().get();
  // Another thread may have added `s`, or grown the table, since this
  // thread's lock-free probe.
  if (current != nullptr) {
    if (const Entry* e = current->find(s, hash)) {
      return Str(e->bytes(), e->size);
    }
  }

  const std::size_t capacity = current == nullptr ? 0 : current->mask + 1;
  if ((shard.stats.strings + 1) * 2 > capacity) {
    auto grown = std::make_unique<Table>(
        capacity == 0 ? kFirstTableSlots : capacity * 2);
    for (std::size_t i = 0; i < capacity; ++i) {
      const Entry* old = current->slots[i].load(std::memory_order_relaxed);
      if (old != nullptr) grown->place(old);
    }
    current = grown.get();
    shard.tables.push_back(std::move(grown));
    shard.table.store(current, std::memory_order_release);
  }

  const Entry* e = append(shard, s, hash);
  current->place(e);
  ++shard.stats.strings;
  shard.stats.bytes += s.size();
  return Str(e->bytes(), e->size);
}

const StringArena::Entry* StringArena::append(Shard& shard,
                                              std::string_view s,
                                              std::uint32_t hash) {
  // Header + bytes + the NUL that makes c_str() valid, rounded so the
  // next header stays aligned.
  constexpr std::size_t kAlign = alignof(Entry);
  const std::size_t need =
      (sizeof(Entry) + s.size() + 1 + kAlign - 1) & ~(kAlign - 1);
  char* dst;
  if (need > chunk_bytes_) {
    // A dedicated chunk, so a >64 KiB DN never forces the bump
    // allocator's chunk size up or strands the current chunk's tail.
    shard.chunks.push_back(std::make_unique_for_overwrite<char[]>(need));
    shard.stats.chunk_bytes += need;
    dst = shard.chunks.back().get();
  } else {
    if (need > shard.remaining) {
      shard.chunks.push_back(
          std::make_unique_for_overwrite<char[]>(chunk_bytes_));
      shard.cursor = shard.chunks.back().get();
      shard.remaining = chunk_bytes_;
      shard.stats.chunk_bytes += chunk_bytes_;
    }
    dst = shard.cursor;
    shard.cursor += need;
    shard.remaining -= need;
  }
  Entry* e = new (dst) Entry{hash, static_cast<std::uint32_t>(s.size())};
  char* bytes = dst + sizeof(Entry);
  std::memcpy(bytes, s.data(), s.size());
  bytes[s.size()] = '\0';
  return e;
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
