/* The process's allocator policy, set once when [Arena] initialises.

   OCaml 5 allocates every block over 256 words with malloc, so each
   arena's data, its dedup index and every kernel's scratch array is a
   malloc chunk. glibc's dynamic thresholds return such chunks to the
   kernel when they are freed (by munmap, or by trimming the top of the
   heap), and the next output of the same size faults in and zeroes its
   pages again. Pinning both thresholds keeps freed storage in the
   process for the next allocation (docs/INTERNALS.md, "Memory
   policy"):

   - M_MMAP_THRESHOLD 32 MiB: the ceiling glibc's own dynamic threshold
     climbs to, and the largest value mallopt accepts on 64-bit hosts.
     Chunks below it come from the heap and are reused when freed.
   - M_TRIM_THRESHOLD 256 MiB: free space at the top of the heap is
     handed back only above this much.

   Returns 1 when both are set, 0 off glibc (nothing to set), and -1
   when mallopt refuses either value. */

#include <caml/mlvalues.h>

#ifdef __GLIBC__
#include <malloc.h>
#endif

value ppr_arena_malloc_policy(value unit)
{
  (void)unit;
#ifdef __GLIBC__
  if (mallopt(M_MMAP_THRESHOLD, 32 * 1024 * 1024) != 1) return Val_int(-1);
  if (mallopt(M_TRIM_THRESHOLD, 256 * 1024 * 1024) != 1) return Val_int(-1);
  return Val_int(1);
#else
  return Val_int(0);
#endif
}
