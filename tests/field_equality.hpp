// Field-naming equality for the tests, derived from the same field lists
// as the state codec and the shard merge (core/field_list.hpp): every
// listed field is compared, so a field added to a list is compared too.
#pragma once

#include <cstddef>
#include <string>
#include <unordered_map>
#include <vector>

#include "mtlscope/core/field_list.hpp"

namespace mtlscope::testing_support {

struct Differences {
  std::vector<std::string> paths;  // the first ten
  std::size_t count = 0;
  void add(std::string path) {
    if (++count <= 10) paths.push_back(std::move(path));
  }
};

template <class T>
void diff(const T& a, const T& b, const std::string& path, Differences& out);

template <class C>
struct DiffFields {
  const C& a;
  const C& b;
  const std::string& path;
  Differences& out;

  template <class M, class R>
  void operator()(const char* name, M member, const R&) {
    diff(core::detail::at(a, member), core::detail::at(b, member),
         path.empty() ? name : path + "." + name, out);
  }
  void operator()(const char*, core::rule::Retired) {}
};

template <class T>
void diff(const T& a, const T& b, const std::string& path, Differences& out) {
  using core::detail::kIs;
  if constexpr (core::FieldListed<T>) {
    DiffFields<T> visitor{a, b, path, out};
    T::fields(visitor);
  } else if constexpr (kIs<T, std::vector> || core::detail::kIsArray<T>) {
    if (std::size(a) != std::size(b)) return out.add(path + " (size)");
    for (std::size_t i = 0; i < std::size(a); ++i) {
      diff(a[i], b[i], path + "[" + std::to_string(i) + "]", out);
    }
  } else if constexpr (kIs<T, std::map> || kIs<T, std::unordered_map>) {
    if (a.size() != b.size()) return out.add(path + " (size)");
    std::size_t i = 0;
    for (const auto& [key, value] : a) {
      std::string at_key = path + "[#" + std::to_string(i++) + "]";
      if constexpr (core::detail::kIsString<typename T::key_type>) {
        at_key = path + "[" + std::string(std::string_view(key)) + "]";
      }
      const auto it = b.find(key);
      if (it == b.end()) {
        out.add(at_key + " (missing)");
      } else {
        diff(value, it->second, at_key, out);
      }
    }
  } else if (!(a == b)) {
    out.add(path);
  }
}

/// "" when every listed field of `a` and `b` is equal; otherwise one line
/// per differing field (the first ten) and, past ten, the count.
template <core::FieldListed T>
std::string field_differences(const T& a, const T& b) {
  Differences out;
  diff(a, b, std::string(), out);
  std::string text;
  for (const std::string& path : out.paths) text += path + "\n";
  if (out.count > out.paths.size()) {
    text += "(" + std::to_string(out.count) + " fields differ)\n";
  }
  return text;
}

}  // namespace mtlscope::testing_support
