#include "core/golden_map.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "util/posix_io.hpp"

namespace phifi::fi {

std::uint64_t fnv1a64(std::span<const std::byte> bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const std::byte b : bytes) {
    hash ^= static_cast<std::uint64_t>(b);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

namespace {

/// Sealed-memfd path: write(2) the bytes into the memfd (no page faults
/// through a writable mapping, which F_SEAL_WRITE would refuse anyway),
/// seal, map PROT_READ. Returns nullptr when memfd_create is unavailable
/// (pre-3.17 kernel or a seccomp filter) so the caller can fall back.
const std::byte* map_sealed(std::span<const std::byte> golden) {
#ifdef MFD_ALLOW_SEALING
  const int fd = ::memfd_create("phifi-golden", MFD_CLOEXEC |
                                                    MFD_ALLOW_SEALING);
  if (fd < 0) return nullptr;
  if (!util::io::write_fully(fd, golden.data(), golden.size())) {
    ::close(fd);
    return nullptr;
  }
  ::fcntl(fd, F_ADD_SEALS,
          F_SEAL_SHRINK | F_SEAL_GROW | F_SEAL_WRITE | F_SEAL_SEAL);
  void* ro = ::mmap(nullptr, golden.size(), PROT_READ, MAP_SHARED, fd, 0);
  ::close(fd);  // the mapping keeps the memfd alive
  if (ro == MAP_FAILED) return nullptr;
  return static_cast<const std::byte*>(ro);
#else
  (void)golden;
  return nullptr;
#endif
}

}  // namespace

GoldenMap::~GoldenMap() { reset(); }

void GoldenMap::reset() {
  if (base_ != nullptr) {
    ::munmap(const_cast<std::byte*>(base_), size_);
  }
  base_ = nullptr;
  size_ = 0;
  digest_ = 0;
  sealed_ = false;
}

void GoldenMap::publish(std::span<const std::byte> golden) {
  reset();
  if (golden.empty()) {
    throw std::runtime_error("GoldenMap: empty golden output");
  }
  const std::byte* base = map_sealed(golden);
  sealed_ = base != nullptr;
  if (base == nullptr) {
    // Fallback: shared anonymous mapping, then mprotect to read-only. Not
    // kernel-enforced against a child that calls mprotect itself, but a
    // trial child stomping the reference is memory corruption either way.
    void* mem = ::mmap(nullptr, golden.size(), PROT_READ | PROT_WRITE,
                       MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    if (mem == MAP_FAILED) {
      throw std::runtime_error("GoldenMap: mmap failed");
    }
    std::memcpy(mem, golden.data(), golden.size());
    ::mprotect(mem, golden.size(), PROT_READ);
    base = static_cast<const std::byte*>(mem);
  }
  base_ = base;
  size_ = golden.size();
  digest_ = fnv1a64(golden);
}

}  // namespace phifi::fi
