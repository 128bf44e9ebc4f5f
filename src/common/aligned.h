#ifndef MLLIBSTAR_COMMON_ALIGNED_H_
#define MLLIBSTAR_COMMON_ALIGNED_H_

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

namespace mllibstar {

/// Allocation alignment for the kernel-facing arrays (one cache line,
/// and the widest vector load any dispatch level performs).
inline constexpr size_t kKernelAlignment = 64;

/// Arrays of at least this many bytes are dataset-sized: just before
/// one is allocated and just after one is freed, the heap's free pages
/// go back to the OS (ReleaseFreeHeapPages). Every figure workload's
/// dataset holds an array of 2.7 MiB or more, while each partition
/// array a training run deals and frees stays under 0.9 MiB, so runs
/// keep reusing their resident pages (DESIGN §17).
inline constexpr size_t kHeapReleaseBytes = size_t{1} << 20;

/// Returns the malloc heap's free pages to the OS (glibc's
/// malloc_trim; a no-op with other C libraries). Live data is untouched.
void ReleaseFreeHeapPages() noexcept;

/// Minimal std::allocator replacement that over-aligns every
/// allocation to `Alignment` bytes via C++17 aligned operator new.
/// Used for the CsrBlock arrays so vector loads never straddle a
/// cache line and aligned-load kernels are always legal.
///
/// A dataset is generated or read while the previous one is alive, and
/// partitions and trainer buffers come and go in between, so the heap
/// holds free chunks whose pages an earlier run touched (resident) next
/// to chunks whose pages it did not. Whether a dataset-sized array grew
/// the resident set thus depended on where malloc placed it, and so on
/// the exact sizes of everything allocated before: fig4-kdd12's peak
/// read 30.7–37.3 MB across the benchmark's inputs. With the free pages
/// released around such arrays, each grows the resident set by what it
/// touches wherever it lands, and the peak follows the live arrays.
template <typename T, size_t Alignment = kKernelAlignment>
class AlignedAllocator {
 public:
  static_assert(Alignment >= alignof(T),
                "Alignment must not weaken the type's natural alignment");
  static_assert((Alignment & (Alignment - 1)) == 0,
                "Alignment must be a power of two");

  using value_type = T;

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) noexcept {}

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  T* allocate(size_t n) {
    if (n * sizeof(T) >= kHeapReleaseBytes) ReleaseFreeHeapPages();
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t(Alignment)));
  }

  void deallocate(T* p, size_t n) noexcept {
    // Compared before the delete: the vector derives `n` from the
    // pointers being freed (GCC's -Wuse-after-free).
    const bool dataset_sized = n * sizeof(T) >= kHeapReleaseBytes;
    ::operator delete(p, std::align_val_t(Alignment));
    if (dataset_sized) ReleaseFreeHeapPages();
  }

  friend bool operator==(const AlignedAllocator&,
                         const AlignedAllocator&) noexcept {
    return true;
  }
  friend bool operator!=(const AlignedAllocator&,
                         const AlignedAllocator&) noexcept {
    return false;
  }
};

/// A std::vector whose buffer starts on a 64-byte boundary.
template <typename T>
using AlignedVector = std::vector<T, AlignedAllocator<T>>;

}  // namespace mllibstar

#endif  // MLLIBSTAR_COMMON_ALIGNED_H_
