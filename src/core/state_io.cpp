#include "mtlscope/core/state_io.hpp"

#include <bit>
#include <cstring>
#include <vector>

#include "mtlscope/crypto/encoding.hpp"
#include "mtlscope/crypto/sha256.hpp"

namespace mtlscope::core {

namespace {

/// Stored little-endian; a big-endian writer would emit 0x04030201.
constexpr std::uint32_t kEndianSentinel = 0x01020304;

/// A section list that does not match its format's table is a bug in
/// the format's own code, never a property of the input.
void check_section_count(const SealedFormat& format, std::size_t count) {
  if (count != format.sections.size()) {
    throw std::logic_error(std::string(format.title) + ": " +
                           std::to_string(count) + " section codecs for " +
                           std::to_string(format.sections.size()) +
                           " sections");
  }
}

template <typename T>
void append_le(std::string& out, T v) {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    out += static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

template <typename T>
T read_le(const std::uint8_t* p) {
  T v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    v |= static_cast<T>(p[i]) << (8 * i);
  }
  return v;
}

}  // namespace

void StateWriter::u8(std::uint8_t v) { buffer_ += static_cast<char>(v); }
void StateWriter::u32(std::uint32_t v) { append_le(buffer_, v); }
void StateWriter::u64(std::uint64_t v) { append_le(buffer_, v); }
void StateWriter::i64(std::int64_t v) {
  append_le(buffer_, static_cast<std::uint64_t>(v));
}
void StateWriter::f64(double v) {
  append_le(buffer_, std::bit_cast<std::uint64_t>(v));
}

void StateWriter::str(std::string_view v) {
  u64(v.size());
  buffer_.append(v.data(), v.size());
}

void StateWriter::raw(const void* data, std::size_t size) {
  buffer_.append(static_cast<const char*>(data), size);
}

const std::uint8_t* StateReader::need(std::size_t n) {
  if (n > data_.size() - pos_) {
    throw StateError("truncated state buffer: need " + std::to_string(n) +
                     " bytes at offset " + std::to_string(pos_) + ", have " +
                     std::to_string(data_.size() - pos_));
  }
  const auto* p = reinterpret_cast<const std::uint8_t*>(data_.data()) + pos_;
  pos_ += n;
  return p;
}

std::uint8_t StateReader::u8() { return *need(1); }
std::uint32_t StateReader::u32() { return read_le<std::uint32_t>(need(4)); }
std::uint64_t StateReader::u64() { return read_le<std::uint64_t>(need(8)); }
std::int64_t StateReader::i64() {
  return static_cast<std::int64_t>(u64());
}
double StateReader::f64() { return std::bit_cast<double>(u64()); }

std::string StateReader::str() {
  const std::uint64_t len = u64();
  const auto* p = need(static_cast<std::size_t>(len));
  return std::string(reinterpret_cast<const char*>(p),
                     static_cast<std::size_t>(len));
}

std::string_view StateReader::bytes(std::size_t n) {
  const auto* p = need(n);
  return std::string_view(reinterpret_cast<const char*>(p), n);
}

void StateReader::expect_done(const char* section) const {
  if (!done()) {
    throw StateError(std::string("trailing bytes in state section '") +
                     section + "': " + std::to_string(remaining()) +
                     " unread");
  }
}

std::string write_sealed(const SealedFormat& format,
                         const std::vector<SectionWriter>& writers) {
  check_section_count(format, writers.size());
  StateWriter w;
  w.raw(format.magic.data(), format.magic.size());
  w.u32(format.version);
  w.u32(kEndianSentinel);
  w.u32(static_cast<std::uint32_t>(writers.size()));
  std::uint32_t id = 0;
  for (const SectionWriter& writer : writers) {
    StateWriter payload;
    writer(payload);
    w.u32(++id);
    w.u64(payload.buffer().size());
    w.raw(payload.buffer().data(), payload.buffer().size());
  }
  std::string out = std::move(w).take();
  const auto digest = crypto::Sha256::hash(out);
  out.append(reinterpret_cast<const char*>(digest.data()), digest.size());
  return out;
}

bool read_sealed(const SealedFormat& format, std::string_view data,
                 const std::vector<SectionReader>& readers,
                 std::string* error, std::string* digest_hex) {
  check_section_count(format, readers.size());
  const auto fail = [error](std::string msg) {
    if (error != nullptr) *error = std::move(msg);
    return false;
  };
  const std::size_t header_bytes = format.magic.size() + 4;  // + version
  if (data.size() < header_bytes) {
    return fail(std::string("truncated ") + format.noun + ": " +
                std::to_string(data.size()) + " bytes");
  }
  if (data.substr(0, format.magic.size()) != format.magic) {
    return fail(std::string("bad magic: not a mtlscope ") + format.title);
  }
  // Version gates everything else: a future-format file reports its
  // version even when the rest of its layout is unreadable to us.
  const std::uint32_t version = read_le<std::uint32_t>(
      reinterpret_cast<const std::uint8_t*>(data.data()) +
      format.magic.size());
  if (version != format.version) {
    return fail(std::string("unsupported ") + format.versioned +
                " version " + std::to_string(version) + " (expected " +
                std::to_string(format.version) + ")");
  }
  if (data.size() < header_bytes + crypto::Sha256::kDigestSize) {
    return fail(std::string("truncated ") + format.noun +
                ": no room for the digest trailer");
  }
  const std::size_t payload_size = data.size() - crypto::Sha256::kDigestSize;
  const auto digest = crypto::Sha256::hash(data.substr(0, payload_size));
  if (std::string_view(reinterpret_cast<const char*>(digest.data()),
                       digest.size()) != data.substr(payload_size)) {
    return fail(std::string(format.kind) +
                " digest mismatch: file corrupted or truncated");
  }

  try {
    StateReader r(data.substr(0, payload_size));
    r.bytes(header_bytes);  // magic and version, verified above
    if (r.u32() != kEndianSentinel) {
      return fail(std::string("bad endianness sentinel in ") + format.noun);
    }
    const std::uint32_t sections = r.u32();
    std::vector<bool> seen(format.sections.size() + 1);
    for (std::uint32_t i = 0; i < sections; ++i) {
      const std::uint32_t id = r.u32();
      const std::uint64_t len = r.u64();
      StateReader section(r.bytes(static_cast<std::size_t>(len)));
      if (id == 0 || id > format.sections.size()) {
        return fail(std::string("unknown ") + format.kind + " section id " +
                    std::to_string(id));
      }
      const char* name = format.sections[id - 1];
      if (seen[id]) {
        return fail(std::string("duplicate ") + format.kind + " section '" +
                    name + "'");
      }
      seen[id] = true;
      readers[id - 1](section);
      section.expect_done(name);
    }
    for (std::size_t id = 1; id <= format.sections.size(); ++id) {
      if (!seen[id]) {
        return fail(std::string("missing ") + format.kind + " section '" +
                    format.sections[id - 1] + "'");
      }
    }
    r.expect_done(format.container);
  } catch (const StateError& e) {
    return fail(e.what());
  }
  if (digest_hex != nullptr) *digest_hex = crypto::to_hex(digest);
  return true;
}

}  // namespace mtlscope::core
