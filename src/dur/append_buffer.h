// A contiguous, append-only byte buffer that grows without copying.
//
// TsJournal keeps its whole journal in memory.  A std::string's capacity
// doubling would copy every byte journaled so far and first-touch twice
// that much fresh memory at once — on a journal of tens of MB, a stall of
// tens of milliseconds on the admission path.  AppendBuffer keeps the
// bytes in an anonymous mapping grown with mremap(2), which moves
// page-table entries instead of bytes, so each page is first touched by
// the append that fills it.  Without mremap (non-Linux) it grows with
// realloc.

#ifndef HISTKANON_SRC_DUR_APPEND_BUFFER_H_
#define HISTKANON_SRC_DUR_APPEND_BUFFER_H_

#include <cstddef>
#include <string_view>

namespace histkanon {
namespace dur {

class AppendBuffer {
 public:
  AppendBuffer() = default;
  ~AppendBuffer();
  AppendBuffer(const AppendBuffer&) = delete;
  AppendBuffer& operator=(const AppendBuffer&) = delete;

  /// Appends `bytes` (which must not point into this buffer).  Throws
  /// std::bad_alloc when the buffer cannot grow.
  void Append(std::string_view bytes);

  /// Drops every byte from offset `size` on; no-op if size >= size().
  void Truncate(size_t size);

  /// Replaces the contents with `bytes` (again not pointing into this
  /// buffer), releasing the old storage.
  void Assign(std::string_view bytes);

  std::string_view view() const { return {data_, size_}; }
  size_t size() const { return size_; }

 private:
  void Grow(size_t min_capacity);
  void Release();

  char* data_ = nullptr;
  size_t size_ = 0;
  size_t capacity_ = 0;
};

}  // namespace dur
}  // namespace histkanon

#endif  // HISTKANON_SRC_DUR_APPEND_BUFFER_H_
