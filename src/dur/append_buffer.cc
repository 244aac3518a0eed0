#include "src/dur/append_buffer.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <new>

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace histkanon {
namespace dur {

namespace {

// The first mapping; untouched pages cost address space, not memory.
constexpr size_t kMinCapacity = size_t{64} << 10;

}  // namespace

AppendBuffer::~AppendBuffer() { Release(); }

void AppendBuffer::Append(std::string_view bytes) {
  if (bytes.empty()) return;
  if (bytes.size() > capacity_ - size_) Grow(size_ + bytes.size());
  std::memcpy(data_ + size_, bytes.data(), bytes.size());
  size_ += bytes.size();
}

void AppendBuffer::Truncate(size_t size) { size_ = std::min(size_, size); }

void AppendBuffer::Assign(std::string_view bytes) {
  Release();
  Append(bytes);
}

void AppendBuffer::Grow(size_t min_capacity) {
  size_t capacity = std::max(kMinCapacity, capacity_);
  while (capacity < min_capacity) capacity *= 2;
#if defined(__linux__)
  void* grown =
      data_ == nullptr
          ? ::mmap(nullptr, capacity, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0)
          : ::mremap(data_, capacity_, capacity, MREMAP_MAYMOVE);
  if (grown == MAP_FAILED) throw std::bad_alloc();
#else
  void* grown = std::realloc(data_, capacity);
  if (grown == nullptr) throw std::bad_alloc();
#endif
  data_ = static_cast<char*>(grown);
  capacity_ = capacity;
}

void AppendBuffer::Release() {
  if (data_ != nullptr) {
#if defined(__linux__)
    ::munmap(data_, capacity_);
#else
    std::free(data_);
#endif
  }
  data_ = nullptr;
  size_ = 0;
  capacity_ = 0;
}

}  // namespace dur
}  // namespace histkanon
