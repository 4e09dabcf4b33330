#ifndef MIRROR_MONET_POSITION_VECTOR_H_
#define MIRROR_MONET_POSITION_VECTOR_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace mirror::monet {

/// Blocks of at least this many bytes (16 pages of 4 KiB) are mapped
/// from the OS page by page instead of taken from the malloc arenas.
inline constexpr size_t kPageMapFloorBytes = 16 * 4096;

/// Whether PageAllocator maps large blocks. AddressSanitizer builds take
/// every block from operator new instead, so the sanitizer still checks
/// candidate buffers for overflows and leaks.
#if defined(__SANITIZE_ADDRESS__)
inline constexpr bool kPageMapsLargeBlocks = false;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
inline constexpr bool kPageMapsLargeBlocks = false;
#else
inline constexpr bool kPageMapsLargeBlocks = true;
#endif
#else
inline constexpr bool kPageMapsLargeBlocks = true;
#endif

/// Anonymous private pages covering `bytes`; throws std::bad_alloc when
/// the OS refuses.
void* MapPages(size_t bytes);
/// Returns a MapPages block of the same `bytes` to the OS.
void UnmapPages(void* p, size_t bytes);

/// A page-granular allocator in the spirit of Monet's heaps. Blocks of
/// kPageMapFloorBytes or more are mapped on allocate and unmapped on
/// deallocate, so freeing one returns its pages to the OS at once
/// (glibc would keep a freed block of that size resident in its arena),
/// and pages nobody writes are never resident. Smaller blocks come from
/// operator new.
///
/// Construction without arguments leaves an element uninitialized:
/// `resize(n)` reserves room for kernels to write without touching it.
template <typename T>
class PageAllocator {
 public:
  using value_type = T;

  PageAllocator() = default;
  template <typename U>
  PageAllocator(const PageAllocator<U>&) {}  // NOLINT(runtime/explicit)

  T* allocate(size_t n) {
    if (Mapped(n)) return static_cast<T*>(MapPages(n * sizeof(T)));
    return std::allocator<T>().allocate(n);
  }

  void deallocate(T* p, size_t n) {
    if (Mapped(n)) {
      UnmapPages(p, n * sizeof(T));
    } else {
      std::allocator<T>().deallocate(p, n);
    }
  }

  template <typename U>
  void construct(U* p) noexcept {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }

  friend bool operator==(const PageAllocator&, const PageAllocator&) {
    return true;
  }

 private:
  static bool Mapped(size_t n) {
    return kPageMapsLargeBlocks && n * sizeof(T) >= kPageMapFloorBytes;
  }
};

/// Row positions of a candidate list or a kernel's selection output.
using PositionVector = std::vector<uint32_t, PageAllocator<uint32_t>>;

}  // namespace mirror::monet

#endif  // MIRROR_MONET_POSITION_VECTOR_H_
