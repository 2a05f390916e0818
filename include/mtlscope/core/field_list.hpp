// Field lists (DESIGN §12). Every mergeable state type — CertFacts, the
// Pipeline and its Totals, the ErrorLedger, the shard meta, the eight
// connection analyzers and their rows — names its fields once:
//
//   template <class V>
//   static void fields(V& v) {
//     v("connections", &Totals::connections, rule::sum);
//     ...
//   }
//
// Each entry is a name, a member pointer and a merge rule; the encoding
// follows from the member's type (below). The state codec (write_fields,
// read_fields), the shard merge (merge_fields) and the tests' equality
// (tests/field_equality.hpp) all walk that one list, so a field cannot be
// written but not merged, or merged but not compared.
//
// Encodings by member type, in StateWriter primitives:
//   bool u8; enum u8 (as_i64(member): i64); int, int64 i64; uint64 u64;
//   uint32 u32; double f64; std::string, colfmt::Str u64 length + bytes;
//   x509::Validity i64 not_before, i64 not_after; C and std arrays the
//   elements, no count; vector u64 count + elements; set, U32Set, map
//   u64 count + elements (map: key, value) in strictly increasing key
//   order; a type with a field list its fields in list order. One rule
//   also picks the encoding: rule::registry(key) writes an unordered map
//   as its values alone, sorted by their key field. A uint16 is a u32.
//
// The reader is the checked one. A SHA-256 trailer proves integrity, not
// origin — anyone can re-seal a file — so every narrowing read is
// range-checked here: an enum byte past kEnumCount, a bool byte other
// than 0 or 1, an i64 outside int, and a set or map run out of key order
// throw a StateError naming the field ("bad value 200 in state field
// 'pipeline.certificates.cn_type' (enum of 10 values)"). That keeps a
// crafted byte out of the array indexes downstream, and every accepted
// file re-serializes to its own bytes. A u32 past a uint16 is refused too.
#pragma once

#include <algorithm>
#include <climits>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "mtlscope/colfmt/arena.hpp"
#include "mtlscope/core/issuer_category.hpp"
#include "mtlscope/core/state_io.hpp"
#include "mtlscope/gen/model.hpp"
#include "mtlscope/textclass/classifier.hpp"
#include "mtlscope/trust/store.hpp"
#include "mtlscope/util/u32_set.hpp"
#include "mtlscope/x509/certificate.hpp"

namespace mtlscope::core {

/// How many values an enum state field may hold; the reader refuses the
/// rest. Each enum a field list stores specializes it.
template <class E>
inline constexpr std::size_t kEnumCount = 0;
template <>
inline constexpr std::size_t kEnumCount<trust::IssuerClass> =
    static_cast<std::size_t>(trust::IssuerClass::kPrivate) + 1;
template <>
inline constexpr std::size_t kEnumCount<IssuerCategory> = kIssuerCategoryCount;
template <>
inline constexpr std::size_t kEnumCount<textclass::InfoType> =
    textclass::kInfoTypeCount;
template <>
inline constexpr std::size_t kEnumCount<gen::Direction> =
    static_cast<std::size_t>(gen::Direction::kOutbound) + 1;
template <>
inline constexpr std::size_t kEnumCount<gen::ServerAssociation> =
    static_cast<std::size_t>(gen::ServerAssociation::kNone) + 1;

/// Merge rules: how a later shard's field folds into this one's, so that
/// folding shards in stream order reproduces the serial state.
namespace rule {
struct Sum {};    // counters add (element-wise over arrays)
struct Or {};     // flags: set in either shard
struct Min {};    // first-seen watermarks
struct Max {};    // last-seen watermarks
struct Union {};  // sets unite
struct Keep {};   // equal in every shard, or the earlier shard's wins
template <class T>
struct FirstSet {  // first in stream order: taken while mine is `unset`
  T unset;
};
template <class T, class M>
struct Upgrade {  // monotone: a later `to` wins, carrying its `carried`
  T to;
  M carried;
};
template <class M>
struct SizeOf {  // derived: the size of `source`, after it merged
  M source;
};
template <class R>
struct Keyed {  // map of rows: a new key moves in, a known one folds
  R value;
};
template <class M>
struct Registry {  // an unordered map keyed by its values' `key` field
  M key;
};
struct Append {};  // vectors concatenate
struct CappedAppend {
  std::size_t cap;  // vectors concatenate up to `cap` entries
};
struct Join {};     // non-empty strings join with ","
struct Fold {};     // a member type with its own field list
struct Retired {};  // a run no writer fills: always a zero count

inline constexpr Sum sum;
inline constexpr Or either;
inline constexpr Min min;
inline constexpr Max max;
inline constexpr Union unite;
inline constexpr Keep keep;
inline constexpr Append append;
inline constexpr Join join;
inline constexpr Fold fold;
inline constexpr Retired retired;
template <class T>
constexpr FirstSet<T> first_set(T unset) { return {unset}; }
template <class T, class M>
constexpr Upgrade<T, M> upgrade(T to, M carried) { return {to, carried}; }
template <class M>
constexpr SizeOf<M> size_of(M source) { return {source}; }
template <class R>
constexpr Keyed<R> keyed(R value) { return {value}; }
template <class M>
constexpr Registry<M> registry(M key) { return {key}; }
constexpr CappedAppend capped_append(std::size_t cap) { return {cap}; }
}  // namespace rule

namespace detail {

template <class M>
struct AsI64 {
  M member;
};

template <class O, class C, class T>
auto& at(O& obj, T C::*member) {
  return obj.*member;
}
template <class O, class M>
auto& at(O& obj, AsI64<M> wide) {
  return at(obj, wide.member);
}

template <class M>
inline constexpr bool kWide = false;
template <class M>
inline constexpr bool kWide<AsI64<M>> = true;

template <class T, template <class...> class Tmpl>
inline constexpr bool kIs = false;
template <template <class...> class Tmpl, class... A>
inline constexpr bool kIs<Tmpl<A...>, Tmpl> = true;

template <class T>
inline constexpr bool kIsStdArray = false;
template <class T, std::size_t N>
inline constexpr bool kIsStdArray<std::array<T, N>> = true;
template <class T>
inline constexpr bool kIsArray = std::is_array_v<T> || kIsStdArray<T>;

template <class T>
inline constexpr bool kIsString =
    std::is_same_v<T, std::string> || std::is_same_v<T, colfmt::Str>;

template <class>
inline constexpr bool kUnsupported = false;

struct AnyVisitor {
  template <class... A>
  void operator()(A&&...) {}
};

}  // namespace detail

/// Marks an enum member that encodes as i64 (the layout some analyzer
/// keys have always had) rather than u8.
template <class M>
constexpr detail::AsI64<M> as_i64(M member) {
  return {member};
}

template <class T>
concept FieldListed = requires(detail::AnyVisitor& v) { T::fields(v); };

namespace detail {

/// A field's place for error messages: names chained on the reader's
/// stack, joined only when a read fails.
struct FieldPath {
  const FieldPath* parent = nullptr;
  const char* name = nullptr;

  std::string str() const {
    std::string head = parent != nullptr ? parent->str() : std::string();
    if (name == nullptr) return head;
    return head.empty() ? name : head + "." + name;
  }
};

[[noreturn]] inline void bad_value(const FieldPath& path, std::int64_t value,
                                   const std::string& kind) {
  throw StateError("bad value " + std::to_string(value) +
                   " in state field '" + path.str() + "' (" + kind + ")");
}

// ---------------------------------------------------------------------------
// Writing

template <bool Wide, class T>
void put(StateWriter& w, const T& v);

template <class C>
struct PutFields {
  StateWriter& w;
  const C& obj;

  template <class M, class R>
  void operator()(const char*, M member, const R& how) {
    if constexpr (kIs<R, rule::Registry>) {
      put_registry(at(obj, member), how.key);
    } else {
      put<kWide<M>>(w, at(obj, member));
    }
  }
  void operator()(const char*, rule::Retired) { w.u64(0); }

  template <class Map, class K>
  void put_registry(const Map& map, K key) {
    using V = typename Map::mapped_type;
    std::vector<const V*> sorted;
    sorted.reserve(map.size());
    for (const auto& entry : map) sorted.push_back(&entry.second);
    std::sort(sorted.begin(), sorted.end(), [key](const V* a, const V* b) {
      return a->*key < b->*key;
    });
    w.u64(sorted.size());
    for (const V* value : sorted) put<false>(w, *value);
  }
};

template <bool Wide, class T>
void put(StateWriter& w, const T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    w.u8(v ? 1 : 0);
  } else if constexpr (std::is_enum_v<T> && Wide) {
    w.i64(static_cast<std::int64_t>(v));
  } else if constexpr (std::is_enum_v<T>) {
    w.u8(static_cast<std::uint8_t>(v));
  } else if constexpr (std::is_same_v<T, int> ||
                       std::is_same_v<T, std::int64_t>) {
    w.i64(v);
  } else if constexpr (std::is_same_v<T, std::uint64_t>) {
    w.u64(v);
  } else if constexpr (std::is_same_v<T, std::uint32_t> ||
                       std::is_same_v<T, std::uint16_t>) {
    w.u32(v);
  } else if constexpr (std::is_same_v<T, double>) {
    w.f64(v);
  } else if constexpr (kIsString<T>) {
    w.str(v);
  } else if constexpr (std::is_same_v<T, x509::Validity>) {
    w.i64(v.not_before);
    w.i64(v.not_after);
  } else if constexpr (std::is_same_v<T, util::U32Set>) {
    put<false>(w, v.sorted());
  } else if constexpr (kIsArray<T>) {
    for (const auto& e : v) put<false>(w, e);
  } else if constexpr (kIs<T, std::vector> || kIs<T, std::set>) {
    w.u64(v.size());
    for (const auto& e : v) put<false>(w, e);
  } else if constexpr (kIs<T, std::map>) {
    w.u64(v.size());
    for (const auto& [key, value] : v) {
      put<false>(w, key);
      put<false>(w, value);
    }
  } else if constexpr (FieldListed<T>) {
    PutFields<T> visitor{w, v};
    T::fields(visitor);
  } else {
    static_assert(kUnsupported<T>, "no state encoding for this type");
  }
}

// ---------------------------------------------------------------------------
// Reading

/// Smallest encoding of one T — a default T has every count at zero —
/// which bounds what a claimed run count may reserve (bounded_reserve).
template <class T>
std::size_t min_bytes() {
  static const std::size_t bytes = [] {
    StateWriter w;
    put<false>(w, T());
    return w.buffer().size();
  }();
  return bytes;
}

/// Set and map runs are written in strictly increasing key order; a run
/// that is not was not written by put(), and is refused rather than
/// re-sorted or deduplicated.
template <class K, class Less>
void check_order(const K& prev, const K& next, const Less& less,
                 const FieldPath& path) {
  if (!less(prev, next)) {
    throw StateError("state field '" + path.str() +
                     "': run not in strictly increasing order");
  }
}

template <bool Wide, class T>
void take(StateReader& r, T& v, const FieldPath& path);

template <class C>
struct TakeFields {
  StateReader& r;
  C& obj;
  const FieldPath& path;

  template <class M, class R>
  void operator()(const char* name, M member, const R& how) {
    const FieldPath here{&path, name};
    if constexpr (kIs<R, rule::Registry>) {
      take_registry(at(obj, member), how.key, here);
    } else {
      take<kWide<M>>(r, at(obj, member), here);
    }
  }
  void operator()(const char* name, rule::Retired) {
    if (r.u64() != 0) {
      throw StateError("retired " + path.str() + " field '" + name +
                       "' is not empty");
    }
  }

  template <class Map, class K>
  void take_registry(Map& map, K key, const FieldPath& here) {
    using V = typename Map::mapped_type;
    map.clear();
    const std::uint64_t n = r.u64();
    map.reserve(bounded_reserve(n, r.remaining(), min_bytes<V>()));
    const typename Map::key_type* prev = nullptr;
    for (std::uint64_t i = 0; i < n; ++i) {
      V value;
      take<false>(r, value, here);
      const auto k = value.*key;
      if (prev != nullptr) check_order(*prev, k, std::less<>(), here);
      prev = &map.emplace(k, std::move(value)).first->first;
    }
  }
};

template <bool Wide, class T>
void take(StateReader& r, T& v, const FieldPath& path) {
  if constexpr (std::is_same_v<T, bool>) {
    const std::uint8_t b = r.u8();
    if (b > 1) bad_value(path, b, "bool");
    v = b != 0;
  } else if constexpr (std::is_enum_v<T>) {
    constexpr std::size_t count = kEnumCount<T>;
    static_assert(count > 0, "enum state field without a kEnumCount");
    const std::int64_t x = Wide ? r.i64() : r.u8();
    if (x < 0 || static_cast<std::uint64_t>(x) >= count) {
      bad_value(path, x, "enum of " + std::to_string(count) + " values");
    }
    v = static_cast<T>(x);
  } else if constexpr (std::is_same_v<T, int>) {
    const std::int64_t x = r.i64();
    if (x < INT_MIN || x > INT_MAX) bad_value(path, x, "int");
    v = static_cast<int>(x);
  } else if constexpr (std::is_same_v<T, std::int64_t>) {
    v = r.i64();
  } else if constexpr (std::is_same_v<T, std::uint64_t>) {
    v = r.u64();
  } else if constexpr (std::is_same_v<T, std::uint32_t>) {
    v = r.u32();
  } else if constexpr (std::is_same_v<T, std::uint16_t>) {
    const std::uint32_t x = r.u32();
    if (x > UINT16_MAX) bad_value(path, x, "uint16");
    v = static_cast<std::uint16_t>(x);
  } else if constexpr (std::is_same_v<T, double>) {
    v = r.f64();
  } else if constexpr (std::is_same_v<T, std::string>) {
    v = r.str();
  } else if constexpr (std::is_same_v<T, colfmt::Str>) {
    v = colfmt::Str(r.bytes(static_cast<std::size_t>(r.u64())));
  } else if constexpr (std::is_same_v<T, x509::Validity>) {
    v.not_before = r.i64();
    v.not_after = r.i64();
  } else if constexpr (std::is_same_v<T, util::U32Set>) {
    v.clear();
    const std::uint64_t n = r.u64();
    v.reserve(bounded_reserve(n, r.remaining(), sizeof(std::uint32_t)));
    std::uint32_t prev = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint32_t x = r.u32();
      if (i > 0) check_order(prev, x, std::less<>(), path);
      v.insert(x);
      prev = x;
    }
  } else if constexpr (kIsArray<T>) {
    for (auto& e : v) take<false>(r, e, path);
  } else if constexpr (kIs<T, std::vector>) {
    v.clear();
    const std::uint64_t n = r.u64();
    v.reserve(bounded_reserve(n, r.remaining(),
                              min_bytes<typename T::value_type>()));
    for (std::uint64_t i = 0; i < n; ++i) {
      take<false>(r, v.emplace_back(), path);
    }
  } else if constexpr (kIs<T, std::set>) {
    v.clear();
    const std::uint64_t n = r.u64();
    for (std::uint64_t i = 0; i < n; ++i) {
      typename T::value_type x;
      take<false>(r, x, path);
      if (!v.empty()) check_order(*v.rbegin(), x, v.key_comp(), path);
      v.emplace_hint(v.end(), std::move(x));
    }
  } else if constexpr (kIs<T, std::map>) {
    v.clear();
    const std::uint64_t n = r.u64();
    for (std::uint64_t i = 0; i < n; ++i) {
      typename T::key_type key;
      take<false>(r, key, path);
      if (!v.empty()) check_order(v.rbegin()->first, key, v.key_comp(), path);
      auto it = v.emplace_hint(v.end(), std::move(key),
                               typename T::mapped_type());
      take<false>(r, it->second, path);
    }
  } else if constexpr (FieldListed<T>) {
    TakeFields<T> visitor{r, v, path};
    T::fields(visitor);
  } else {
    static_assert(kUnsupported<T>, "no state encoding for this type");
  }
}

// ---------------------------------------------------------------------------
// Merging

template <class R, class T>
void fold(const R& how, T& mine, T& theirs);

/// One pass over a field list. Derived fields (rule::SizeOf) wait for the
/// second pass, after the fields they derive from merged.
template <class C, bool DerivedPass>
struct MergeFields {
  C& mine;
  C& theirs;

  template <class M, class R>
  void operator()(const char*, M member, const R& how) {
    if constexpr (kIs<R, rule::SizeOf>) {
      if constexpr (DerivedPass) {
        at(mine, member) = at(mine, how.source).size();
      }
    } else if constexpr (DerivedPass) {
    } else if constexpr (kIs<R, rule::Upgrade>) {
      if (at(theirs, member) == how.to && at(mine, member) != how.to) {
        at(mine, member) = how.to;
        at(mine, how.carried) = at(theirs, how.carried);
      }
    } else {
      fold(how, at(mine, member), at(theirs, member));
    }
  }
  void operator()(const char*, rule::Retired) {}
};

template <class T>
void merge_fields(T& mine, T& theirs) {
  MergeFields<T, false> fields_pass{mine, theirs};
  T::fields(fields_pass);
  MergeFields<T, true> derived_pass{mine, theirs};
  T::fields(derived_pass);
}

template <class R, class T>
void fold(const R& how, T& mine, T& theirs) {
  if constexpr (kIsArray<T>) {
    for (std::size_t i = 0; i < std::size(mine); ++i) {
      fold(how, mine[i], theirs[i]);
    }
  } else if constexpr (std::is_same_v<R, rule::Sum>) {
    mine += theirs;
  } else if constexpr (std::is_same_v<R, rule::Or>) {
    mine = mine || theirs;
  } else if constexpr (std::is_same_v<R, rule::Min>) {
    mine = std::min(mine, theirs);
  } else if constexpr (std::is_same_v<R, rule::Max>) {
    mine = std::max(mine, theirs);
  } else if constexpr (std::is_same_v<R, rule::Union>) {
    mine.merge(theirs);
  } else if constexpr (std::is_same_v<R, rule::Keep>) {
  } else if constexpr (kIs<R, rule::FirstSet>) {
    if (mine == how.unset) mine = std::move(theirs);
  } else if constexpr (kIs<R, rule::Keyed> || kIs<R, rule::Registry>) {
    // An empty map adopts the later one whole, nodes and all: the first
    // shard of a merge costs nothing, whatever its size. No reserve for
    // the rest: shards share most keys, so their summed sizes overshoot
    // and the rehash costs more than the growth it saves.
    if (mine.empty()) {
      mine = std::move(theirs);
      return;
    }
    for (auto& [key, value] : theirs) {
      const auto it = mine.find(key);
      if (it == mine.end()) {
        mine.emplace(key, std::move(value));
      } else if constexpr (kIs<R, rule::Keyed>) {
        fold(how.value, it->second, value);
      } else {
        merge_fields(it->second, value);
      }
    }
  } else if constexpr (std::is_same_v<R, rule::Append>) {
    mine.insert(mine.end(), std::make_move_iterator(theirs.begin()),
                std::make_move_iterator(theirs.end()));
  } else if constexpr (std::is_same_v<R, rule::CappedAppend>) {
    for (auto& e : theirs) {
      if (mine.size() < how.cap) mine.push_back(std::move(e));
    }
  } else if constexpr (std::is_same_v<R, rule::Join>) {
    if (!mine.empty() && !theirs.empty()) mine += ",";
    mine += theirs;
  } else if constexpr (std::is_same_v<R, rule::Fold>) {
    merge_fields(mine, theirs);
  } else {
    static_assert(kUnsupported<R>, "unknown merge rule");
  }
}

}  // namespace detail

/// Appends `state`'s fields in list order.
template <FieldListed T>
void write_fields(StateWriter& w, const T& state) {
  detail::put<false>(w, state);
}

/// Replaces `state` with the fields read from `r`. `root` (a section
/// name, say) prefixes the field names in error messages.
template <FieldListed T>
void read_fields(StateReader& r, T& state, const char* root = nullptr) {
  detail::take<false>(r, state, detail::FieldPath{nullptr, root});
}

/// One value in its field encoding, for a codec that lists its fields by
/// hand; read_field reads it back through the checked reader, `name`
/// ("scheduler.have_watermark") labelling a refusal.
template <class T>
void write_field(StateWriter& w, const T& value) {
  detail::put<false>(w, value);
}
template <class T>
T read_field(StateReader& r, const char* name) {
  T value{};
  detail::take<false>(r, value, detail::FieldPath{nullptr, name});
  return value;
}

/// Folds a later shard's state into `mine`, each field by its rule.
/// `theirs` is left valid but unspecified.
template <FieldListed T>
void merge_fields(T& mine, T&& theirs) {
  detail::merge_fields(mine, theirs);
}

}  // namespace mtlscope::core
