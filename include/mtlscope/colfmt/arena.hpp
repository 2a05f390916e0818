// Interned string/cert storage (DESIGN §14). A `Str` is a 16-byte view
// into a process-lifetime arena: interning stores each distinct byte
// sequence once (NUL-terminated, so c_str() works) and every later
// intern of the same bytes returns the same pointer, which makes
// equality a pointer compare in the common case and lets records hold
// millions of repeated issuers/SNIs/fuids without per-record copies.
//
// Two global arenas exist: `StringArena::global()` for log-field
// strings and `CertArena::global()` for raw DER blobs (bigger chunks,
// separate accounting). `Str` is arena-agnostic — equality and ordering
// always fall back to byte comparison, so values from different arenas
// interoperate; the split only affects pooling and stats.
//
// Determinism note: interned *pointers* depend on thread interleaving,
// so nothing ordered may key on identity. `Str` therefore orders and
// hashes by bytes only, and serialization writes the bytes (never an
// id), which is what keeps PR 6 state files and PR 7 checkpoints
// byte-identical across thread counts.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace mtlscope::colfmt {

class StringArena;
class CertArena;

/// An interned, immutable string: pointer + length into arena storage.
/// Constructing from any string-ish value interns it into the global
/// StringArena; default construction is the empty string.
class Str {
 public:
  constexpr Str() = default;
  Str(std::string_view s);
  Str(const std::string& s) : Str(std::string_view(s)) {}
  Str(const char* s) : Str(std::string_view(s)) {}

  std::string_view view() const { return {data_, size_}; }
  operator std::string_view() const { return view(); }
  std::string str() const { return std::string(data_, size_); }
  /// Valid: the arena NUL-terminates every interned string.
  const char* c_str() const { return data_ == nullptr ? "" : data_; }
  const char* data() const { return data_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  friend bool operator==(const Str& a, const Str& b) {
    // A default Str holds a null pointer, and memcmp must not see one
    // even for zero bytes.
    return a.size_ == b.size_ &&
           (a.data_ == b.data_ || a.size_ == 0 ||
            std::memcmp(a.data_, b.data_, a.size_) == 0);
  }
  friend bool operator==(const Str& a, std::string_view b) {
    return a.view() == b;
  }
  friend bool operator==(const Str& a, const std::string& b) {
    return a.view() == std::string_view(b);
  }
  friend bool operator==(const Str& a, const char* b) {
    return a.view() == std::string_view(b);
  }
  friend bool operator<(const Str& a, const Str& b) {
    return a.view() < b.view();
  }
  template <typename OStream>
  friend OStream& operator<<(OStream& os, const Str& s) {
    os << s.view();
    return os;
  }

 private:
  friend class StringArena;
  Str(const char* data, std::uint32_t size) : data_(data), size_(size) {}

  const char* data_ = nullptr;
  std::uint32_t size_ = 0;
};

/// Small-buffer vector of Str handles for record list fields (chain
/// fuids, SAN lists). Real chains and SAN lists almost never exceed
/// four entries, so the inline buffer makes record materialization and
/// destruction allocation-free on the hot parse/decode paths; longer
/// lists spill to the heap transparently. Equality is element-wise
/// (Str compares by bytes, never by arena identity).
class StrVec {
 public:
  static constexpr std::size_t kInline = 4;
  using value_type = Str;

  StrVec() = default;
  StrVec(std::initializer_list<Str> init) {
    reserve(init.size());
    for (const Str& s : init) data()[size_++] = s;
  }
  StrVec(const StrVec& other) { *this = other; }
  StrVec(StrVec&& other) noexcept { *this = std::move(other); }
  StrVec& operator=(const StrVec& other) {
    if (this == &other) return *this;
    size_ = 0;
    reserve(other.size_);
    std::copy(other.begin(), other.end(), data());
    size_ = other.size_;
    return *this;
  }
  StrVec& operator=(StrVec&& other) noexcept {
    if (this == &other) return *this;
    delete[] heap_;
    heap_ = other.heap_;
    size_ = other.size_;
    capacity_ = other.capacity_;
    if (heap_ == nullptr) {
      std::copy(other.inline_, other.inline_ + size_, inline_);
    }
    other.heap_ = nullptr;
    other.size_ = 0;
    other.capacity_ = kInline;
    return *this;
  }
  StrVec& operator=(std::initializer_list<Str> init) {
    size_ = 0;
    reserve(init.size());
    for (const Str& s : init) data()[size_++] = s;
    return *this;
  }
  ~StrVec() { delete[] heap_; }

  Str* begin() { return data(); }
  Str* end() { return data() + size_; }
  const Str* begin() const { return data(); }
  const Str* end() const { return data() + size_; }
  Str& operator[](std::size_t i) { return data()[i]; }
  const Str& operator[](std::size_t i) const { return data()[i]; }
  Str& front() { return data()[0]; }
  const Str& front() const { return data()[0]; }
  Str& back() { return data()[size_ - 1]; }
  const Str& back() const { return data()[size_ - 1]; }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity() const { return capacity_; }
  void clear() { size_ = 0; }
  void reserve(std::size_t n) {
    if (n > capacity_) grow(n);
  }
  /// Shrinking keeps storage; growing default-initializes new slots.
  void resize(std::size_t n) {
    reserve(n);
    for (std::size_t i = size_; i < n; ++i) data()[i] = Str();
    size_ = static_cast<std::uint32_t>(n);
  }
  void push_back(const Str& s) {
    if (size_ == capacity_) grow(capacity_ * 2);
    data()[size_++] = s;
  }
  template <typename... Args>
  void emplace_back(Args&&... args) {
    push_back(Str(std::forward<Args>(args)...));
  }

  friend bool operator==(const StrVec& a, const StrVec& b) {
    return a.size_ == b.size_ && std::equal(a.begin(), a.end(), b.begin());
  }
  friend bool operator==(const StrVec& a, const std::vector<Str>& b) {
    return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
  }
  friend bool operator==(const std::vector<Str>& a, const StrVec& b) {
    return b == a;
  }

 private:
  Str* data() { return heap_ != nullptr ? heap_ : inline_; }
  const Str* data() const { return heap_ != nullptr ? heap_ : inline_; }
  void grow(std::size_t n) {
    const std::size_t cap = n < 2 * capacity_ ? 2 * capacity_ : n;
    Str* fresh = new Str[cap];
    std::copy(data(), data() + size_, fresh);
    delete[] heap_;
    heap_ = fresh;
    capacity_ = static_cast<std::uint32_t>(cap);
  }

  Str inline_[kInline];
  Str* heap_ = nullptr;
  std::uint32_t size_ = 0;
  std::uint32_t capacity_ = kInline;
};

/// Transparent byte-order comparator: lets `std::map<Str, V, StrLess>`
/// look up by string_view/std::string without interning the probe key,
/// while iterating in the same byte order as a map<std::string, V>.
struct StrLess {
  using is_transparent = void;
  bool operator()(std::string_view a, std::string_view b) const {
    return a < b;
  }
};

/// Transparent hash/equality for unordered containers keyed by Str.
struct StrHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const {
    return std::hash<std::string_view>{}(s);
  }
};
struct StrEq {
  using is_transparent = void;
  bool operator()(std::string_view a, std::string_view b) const {
    return a == b;
  }
};

/// Sharded interning arena. Each of 16 shards owns bump-allocated
/// chunks and a flat open-addressing index over them. An entry is a
/// (hash, length) header followed by the bytes and a NUL, so a `Str`
/// points just past the header; storage is stable for the arena's
/// lifetime (strings larger than a chunk get a dedicated allocation, so
/// embedded NULs and multi-megabyte DNs are fine) and nothing is freed.
///
/// Lookups never lock. intern() first probes a thread-local,
/// direct-mapped front cache shared by all arenas, then the shard's
/// index: slots are atomic entry pointers, linear-probed, and a hit is
/// a chain of acquire loads. Only a miss takes the shard lock, probes
/// again, appends the entry and release-publishes its slot. Growth
/// (the index stays at most half full) rehashes into a new table under
/// the lock and publishes it; retired tables are kept until the arena
/// dies, because a reader may still be probing one. A reader that
/// misses in a retired table falls through to the lock and finds the
/// entry in the current one.
///
/// The index hash is keyed once per process (util::keyed_hash): the
/// bytes come from logs, and an unkeyed hash would let a crafted log
/// pile its values into one probe run. Front-cache slots are keyed by a
/// process-unique arena id (never the address, which a new arena may
/// reuse) and hold a pointer the shard already returned, so a hit
/// yields the same pointer the index would.
class StringArena {
 public:
  struct Stats {
    std::uint64_t strings = 0;      // distinct interned values
    std::uint64_t bytes = 0;        // payload bytes (excluding NULs)
    std::uint64_t chunk_bytes = 0;  // reserved storage
  };

  explicit StringArena(std::size_t chunk_bytes = 256 * 1024);
  StringArena(const StringArena&) = delete;
  StringArena& operator=(const StringArena&) = delete;

  /// The process-wide arena every implicit `Str` conversion uses.
  static StringArena& global();

  Str intern(std::string_view s);
  Stats stats() const;

 private:
  /// The header stored just before an entry's bytes.
  struct Entry {
    std::uint32_t hash;  // low 32 bits of the index hash
    std::uint32_t size;
    const char* bytes() const {
      return reinterpret_cast<const char*>(this + 1);
    }
  };

  /// One index generation: a power-of-two array of entry pointers,
  /// null where empty. Immutable once retired.
  struct Table {
    explicit Table(std::size_t capacity);
    const Entry* find(std::string_view s, std::uint32_t hash) const;
    /// Stores `e` in the first empty slot of its probe run.
    void place(const Entry* e);

    std::size_t mask;
    std::unique_ptr<std::atomic<const Entry*>[]> slots;
  };

  struct Shard {
    // Readers touch only this line; the writer state lives on the next.
    alignas(64) std::atomic<const Table*> table{nullptr};
    alignas(64) mutable std::mutex mu;
    std::vector<std::unique_ptr<Table>> tables;  // current one last
    std::vector<std::unique_ptr<char[]>> chunks;
    char* cursor = nullptr;  // bump pointer into the current chunk
    std::size_t remaining = 0;
    Stats stats;
  };

  static constexpr std::size_t kShardCount = 16;

  Str intern_slow(Shard& shard, std::string_view s, std::uint32_t hash);
  /// Copies `s` behind a header into the shard's chunks.
  const Entry* append(Shard& shard, std::string_view s, std::uint32_t hash);

  const std::size_t chunk_bytes_;
  const std::uint64_t id_;  // front-cache key, unique for the process
  Shard shards_[kShardCount];
};

/// Interning pool for raw DER certificate bytes: same machinery, bigger
/// chunks, separate accounting so cert dedup is visible on its own.
class CertArena {
 public:
  static CertArena& global();

  Str intern(std::string_view der) { return arena_.intern(der); }
  Str intern(const std::uint8_t* data, std::size_t size) {
    return arena_.intern(
        std::string_view(reinterpret_cast<const char*>(data), size));
  }
  StringArena::Stats stats() const { return arena_.stats(); }

 private:
  StringArena arena_{1024 * 1024};
};

}  // namespace mtlscope::colfmt

template <>
struct std::hash<mtlscope::colfmt::Str> {
  std::size_t operator()(const mtlscope::colfmt::Str& s) const {
    return std::hash<std::string_view>{}(s.view());
  }
};
