/**
 * @file
 * Host heap policy for processes that build and tear down many
 * simulated machines.
 *
 * A fuzz trial, a shrink replay or a crash-matrix cell builds a
 * machine, prewarms its L2 tag pages and seeds its memory image page
 * by page, runs it, and frees it all again: megabytes of small
 * blocks per machine. With glibc's default policy the freed top of
 * the heap goes back to the kernel at once, and the next machine
 * faults the same memory back in page by page. On a fuzz campaign
 * that is about 100K minor faults per pass, a twentieth of its CPU
 * time spent in the kernel, at a cost that rises and falls with the
 * host's memory load rather than with the simulator's work.
 */

#ifndef SIM_HOST_HEAP_HH
#define SIM_HOST_HEAP_HH

namespace strand
{

/** Free heap top kept mapped: several machines' worth. */
constexpr int retainedHeapBytes = 64 << 20;

/**
 * Ask the host allocator to keep freed memory for reuse instead of
 * returning it to the kernel at once: up to retainedHeapBytes of free
 * heap top stay mapped, and blocks of up to 32 MiB come from the
 * heap instead of a mapping of their own. Process-wide and
 * idempotent; a no-op on C libraries without these controls. System
 * construction calls it.
 */
void retainFreedHeap();

} // namespace strand

#endif // SIM_HOST_HEAP_HH
