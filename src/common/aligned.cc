#include "common/aligned.h"

#include <cstdlib>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace mllibstar {

void ReleaseFreeHeapPages() noexcept {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

}  // namespace mllibstar
