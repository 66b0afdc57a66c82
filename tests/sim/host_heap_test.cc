/**
 * @file
 * Unit test for the host heap policy: memory a torn-down machine
 * frees stays mapped for the next one instead of going back to the
 * kernel.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#if __has_include(<malloc.h>)
#include <malloc.h>
#endif

#include "sim/host_heap.hh"

namespace strand
{
namespace
{

TEST(HostHeap, FreedHeapTopStaysMapped)
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    GTEST_SKIP() << "the sanitizer's allocator replaces the C library's";
#elif defined(M_TRIM_THRESHOLD) && defined(__GLIBC__) && \
    (__GLIBC__ > 2 || __GLIBC_MINOR__ >= 33)
    retainFreedHeap();
    // 16 MiB of page-sized blocks, about one fuzz machine's L2 tag
    // pages and image pages, freed newest first so they fold back
    // into the heap top. glibc's default policy hands that top back
    // to the kernel; the retained heap keeps it.
    const std::size_t blocks = 4096, blockBytes = 4096;
    const std::size_t before = mallinfo2().arena;
    std::vector<void *> held(blocks);
    for (void *&p : held)
        p = std::malloc(blockBytes);
    const std::size_t grown = mallinfo2().arena;
    ASSERT_GE(grown - before, blocks * blockBytes / 2)
        << "the blocks must come from the heap arena";
    for (auto it = held.rbegin(); it != held.rend(); ++it)
        std::free(*it);
    EXPECT_EQ(mallinfo2().arena, grown);
#else
    GTEST_SKIP() << "no glibc heap controls on this C library";
#endif
}

} // namespace
} // namespace strand
