#include "storage/snapshot_io.h"

#include "util/hash.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

namespace re2xolap::storage {

// --- XXH64 ------------------------------------------------------------------

uint64_t Xxh64(const void* data, size_t len, uint64_t seed) {
  return util::Xxh64(data, len, seed);
}

// --- ByteReader -------------------------------------------------------------

util::Status ByteReader::Take(void* out, size_t n) {
  if (n > size_ - pos_) {
    return util::Status::ParseError(
        "snapshot payload truncated: need " + std::to_string(n) +
        " bytes at offset " + std::to_string(pos_) + ", have " +
        std::to_string(size_ - pos_));
  }
  std::memcpy(out, data_ + pos_, n);
  pos_ += n;
  return util::Status::OK();
}

util::Status ByteReader::U8(uint8_t* out) { return Take(out, sizeof(*out)); }
util::Status ByteReader::U32(uint32_t* out) { return Take(out, sizeof(*out)); }
util::Status ByteReader::U64(uint64_t* out) { return Take(out, sizeof(*out)); }
util::Status ByteReader::I32(int32_t* out) { return Take(out, sizeof(*out)); }

util::Status ByteReader::Str(std::string* out) {
  std::string_view view;
  RE2X_RETURN_IF_ERROR(StrView(&view));
  out->assign(view);
  return util::Status::OK();
}

util::Status ByteReader::StrView(std::string_view* out) {
  uint32_t len = 0;
  RE2X_RETURN_IF_ERROR(U32(&len));
  if (len > size_ - pos_) {
    return util::Status::ParseError(
        "snapshot string overruns payload: length " + std::to_string(len) +
        " at offset " + std::to_string(pos_));
  }
  *out = std::string_view(reinterpret_cast<const char*>(data_ + pos_), len);
  pos_ += len;
  return util::Status::OK();
}

util::Status ByteReader::Skip(size_t n) {
  if (n > size_ - pos_) {
    return util::Status::ParseError("snapshot payload truncated in skip");
  }
  pos_ += n;
  return util::Status::OK();
}

// --- Files ------------------------------------------------------------------

namespace {

util::Status ErrnoStatus(const std::string& what, const std::string& path) {
  std::string msg = what + " " + path + ": " + std::strerror(errno);
  if (errno == ENOENT) return util::Status::NotFound(std::move(msg));
  return util::Status::ExecutionError(std::move(msg));
}

}  // namespace

util::Result<std::shared_ptr<MappedFile>> MappedFile::Open(
    const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return ErrnoStatus("open", path);
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    util::Status s = ErrnoStatus("stat", path);
    ::close(fd);
    return s;
  }
  size_t size = static_cast<size_t>(st.st_size);
  if (size == 0) {
    ::close(fd);
    return util::Status::ParseError("empty file is not a snapshot: " + path);
  }
  void* addr = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (addr == MAP_FAILED) return ErrnoStatus("mmap", path);
  return std::shared_ptr<MappedFile>(
      new MappedFile(static_cast<const std::byte*>(addr), size));
}

MappedFile::~MappedFile() {
  if (data_ != nullptr) {
    ::munmap(const_cast<std::byte*>(data_), size_);
  }
}

util::Result<std::shared_ptr<std::vector<std::byte>>> ReadFileBytes(
    const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return ErrnoStatus("open", path);
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    util::Status s = ErrnoStatus("stat", path);
    ::close(fd);
    return s;
  }
  auto buf = std::make_shared<std::vector<std::byte>>(
      static_cast<size_t>(st.st_size));
  size_t off = 0;
  while (off < buf->size()) {
    ssize_t n = ::read(fd, buf->data() + off, buf->size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      util::Status s = ErrnoStatus("read", path);
      ::close(fd);
      return s;
    }
    if (n == 0) break;  // concurrent truncation; header check reports it
    off += static_cast<size_t>(n);
  }
  ::close(fd);
  buf->resize(off);
  return buf;
}

util::Result<std::vector<std::byte>> ReadFilePrefix(const std::string& path,
                                                    size_t n,
                                                    uint64_t* file_size) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return ErrnoStatus("open", path);
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    util::Status s = ErrnoStatus("stat", path);
    ::close(fd);
    return s;
  }
  if (file_size != nullptr) *file_size = static_cast<uint64_t>(st.st_size);
  std::vector<std::byte> buf(
      std::min(n, static_cast<size_t>(st.st_size)));
  size_t off = 0;
  while (off < buf.size()) {
    ssize_t r = ::read(fd, buf.data() + off, buf.size() - off);
    if (r < 0) {
      if (errno == EINTR) continue;
      util::Status s = ErrnoStatus("read", path);
      ::close(fd);
      return s;
    }
    if (r == 0) break;
    off += static_cast<size_t>(r);
  }
  ::close(fd);
  buf.resize(off);
  return buf;
}

util::Status WriteFileAtomic(
    const std::string& path,
    const std::vector<std::pair<const void*, size_t>>& blobs) {
  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return ErrnoStatus("create", tmp);
  for (const auto& [data, len] : blobs) {
    const char* p = static_cast<const char*>(data);
    size_t off = 0;
    while (off < len) {
      ssize_t n = ::write(fd, p + off, len - off);
      if (n < 0) {
        if (errno == EINTR) continue;
        util::Status s = ErrnoStatus("write", tmp);
        ::close(fd);
        ::unlink(tmp.c_str());
        return s;
      }
      off += static_cast<size_t>(n);
    }
  }
  if (::fsync(fd) != 0) {
    util::Status s = ErrnoStatus("fsync", tmp);
    ::close(fd);
    ::unlink(tmp.c_str());
    return s;
  }
  if (::close(fd) != 0) {
    util::Status s = ErrnoStatus("close", tmp);
    ::unlink(tmp.c_str());
    return s;
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    util::Status s = ErrnoStatus("rename", tmp);
    ::unlink(tmp.c_str());
    return s;
  }
  return util::Status::OK();
}

}  // namespace re2xolap::storage
