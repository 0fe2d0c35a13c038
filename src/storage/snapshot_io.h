#ifndef RE2XOLAP_STORAGE_SNAPSHOT_IO_H_
#define RE2XOLAP_STORAGE_SNAPSHOT_IO_H_

// Byte-level primitives for the snapshot subsystem: little-endian encode /
// bounds-checked decode, the XXH64 checksum, read-only file mappings, and
// atomic multi-blob file writes. Everything here is format-agnostic; the
// snapshot layout itself lives in storage/snapshot.{h,cc}.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/result.h"
#include "util/status.h"

namespace re2xolap::storage {

/// XXH64 (the 64-bit xxHash variant): fast non-cryptographic hash used as
/// the per-section and header checksum. Deterministic across runs and
/// platforms of the same endianness.
uint64_t Xxh64(const void* data, size_t len, uint64_t seed = 0);

/// Append-only little-endian byte sink used to encode section payloads.
class ByteWriter {
 public:
  void U8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void U32(uint32_t v) { AppendLe(&v, sizeof(v)); }
  void U64(uint64_t v) { AppendLe(&v, sizeof(v)); }
  void I32(int32_t v) { AppendLe(&v, sizeof(v)); }
  void Bytes(const void* data, size_t len) {
    buf_.append(static_cast<const char*>(data), len);
  }
  /// u32 byte length followed by the raw bytes.
  void Str(std::string_view s) {
    U32(static_cast<uint32_t>(s.size()));
    Bytes(s.data(), s.size());
  }

  size_t size() const { return buf_.size(); }
  const std::string& data() const { return buf_; }
  std::string Take() { return std::move(buf_); }
  void Reserve(size_t n) { buf_.reserve(n); }

 private:
  // The build targets are little-endian; a memcpy of the native
  // representation IS the wire format (asserted in snapshot.cc).
  void AppendLe(const void* v, size_t n) {
    buf_.append(static_cast<const char*>(v), n);
  }

  std::string buf_;
};

/// Bounds-checked little-endian reader over a byte span. Every accessor
/// reports an overrun as a typed ParseError instead of reading past the
/// buffer, so truncated or bit-flipped payloads can never cause UB.
class ByteReader {
 public:
  ByteReader(const std::byte* data, size_t size) : data_(data), size_(size) {}

  util::Status U8(uint8_t* out);
  util::Status U32(uint32_t* out);
  util::Status U64(uint64_t* out);
  util::Status I32(int32_t* out);
  /// u32 byte length + raw bytes, as written by ByteWriter::Str.
  util::Status Str(std::string* out);
  /// Str() without the copy: `out` views the payload's bytes.
  util::Status StrView(std::string_view* out);
  util::Status Skip(size_t n);

  size_t remaining() const { return size_ - pos_; }
  size_t offset() const { return pos_; }
  const std::byte* cursor() const { return data_ + pos_; }

 private:
  util::Status Take(void* out, size_t n);

  const std::byte* data_;
  size_t size_;
  size_t pos_ = 0;
};

/// Read-only memory mapping of an entire file (RAII munmap). A loaded
/// zero-copy snapshot shares ownership of the mapping into the TripleStore
/// as its keepalive, so the pages stay valid for the store's lifetime.
class MappedFile {
 public:
  static util::Result<std::shared_ptr<MappedFile>> Open(
      const std::string& path);
  ~MappedFile();

  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  const std::byte* data() const { return data_; }
  size_t size() const { return size_; }

 private:
  MappedFile(const std::byte* data, size_t size) : data_(data), size_(size) {}

  const std::byte* data_ = nullptr;
  size_t size_ = 0;
};

/// Reads a whole file into a heap buffer (copy-mode loads and verification
/// passes). NotFound when the file does not exist.
util::Result<std::shared_ptr<std::vector<std::byte>>> ReadFileBytes(
    const std::string& path);

/// Reads exactly the first `n` bytes of a file (header inspection without
/// paging in the payload). Returns fewer bytes only when the file is
/// shorter; also reports the file's total size through `file_size`.
util::Result<std::vector<std::byte>> ReadFilePrefix(const std::string& path,
                                                    size_t n,
                                                    uint64_t* file_size);

/// Writes the concatenation of `blobs` to `path` atomically: the bytes go
/// to `<path>.tmp` first and are renamed over `path` only after a
/// successful write + flush, so readers never observe a half-written
/// snapshot image.
util::Status WriteFileAtomic(
    const std::string& path,
    const std::vector<std::pair<const void*, size_t>>& blobs);

}  // namespace re2xolap::storage

#endif  // RE2XOLAP_STORAGE_SNAPSHOT_IO_H_
