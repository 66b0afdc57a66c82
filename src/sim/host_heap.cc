#include "sim/host_heap.hh"

#if __has_include(<malloc.h>)
#include <malloc.h>
#endif

namespace strand
{

namespace
{

/** glibc's ceiling for M_MMAP_THRESHOLD on 64-bit hosts. */
constexpr int mmapThresholdBytes = 32 << 20;

} // namespace

void
retainFreedHeap()
{
#if defined(M_MMAP_THRESHOLD) && defined(M_TRIM_THRESHOLD)
    // Setting either value turns off glibc's own threshold tuning,
    // so both are set.
    static const bool applied = [] {
        return mallopt(M_MMAP_THRESHOLD, mmapThresholdBytes) == 1 &&
               mallopt(M_TRIM_THRESHOLD, retainedHeapBytes) == 1;
    }();
    (void)applied;
#endif
}

} // namespace strand
