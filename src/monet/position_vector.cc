#include "monet/position_vector.h"

#include <sys/mman.h>

#include <new>

#include "base/logging.h"

namespace mirror::monet {

void* MapPages(size_t bytes) {
  void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  return p;
}

void UnmapPages(void* p, size_t bytes) {
  MIRROR_CHECK(munmap(p, bytes) == 0) << "munmap of " << bytes << " bytes";
}

}  // namespace mirror::monet
