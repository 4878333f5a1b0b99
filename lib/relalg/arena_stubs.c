/* The arena's storage primitives: the process's allocator policy, set
   once when [Arena] initialises, and the copy and the prompt free of
   arena storage.

   OCaml 5 allocates every block over 256 words with malloc, so each
   arena's data, its dedup index and every kernel's scratch array is a
   malloc chunk. glibc's dynamic thresholds return such chunks to the
   kernel when they are freed (by munmap, or by trimming the top of the
   heap), and the next output of the same size faults in and zeroes its
   pages again. Pinning the policy keeps freed storage in the process
   for the next allocation (docs/INTERNALS.md, "Memory policy"):

   - M_MMAP_THRESHOLD 32 MiB: the ceiling glibc's own dynamic threshold
     climbs to, and the largest value mallopt accepts on 64-bit hosts.
   - M_MMAP_MAX 0: no chunk is served by mmap, so one above that
     ceiling comes from the heap too and is reused when freed, instead
     of being unmapped and faulted in again by the next output.
   - M_TRIM_THRESHOLD 256 MiB: free space at the top of the heap is
     handed back only above this much.

   [ppr_arena_malloc_policy] returns 1 when all three are set, 0 off
   glibc (nothing to set), and -1 when mallopt refuses a value. */

#include <stdlib.h>
#include <string.h>
#include <caml/mlvalues.h>
#include <caml/bigarray.h>

#ifdef __GLIBC__
#include <malloc.h>
#endif

value ppr_arena_malloc_policy(value unit)
{
  (void)unit;
#ifdef __GLIBC__
  if (mallopt(M_MMAP_THRESHOLD, 32 * 1024 * 1024) != 1) return Val_int(-1);
  if (mallopt(M_MMAP_MAX, 0) != 1) return Val_int(-1);
  if (mallopt(M_TRIM_THRESHOLD, 256 * 1024 * 1024) != 1) return Val_int(-1);
  return Val_int(1);
#else
  return Val_int(0);
#endif
}

/* Copy the first [cells] ints of [src] to the front of [dst]. The
   caller checks both hold that many; copying here instead of through
   [Bigarray.Array1.sub] views gives neither storage a proxy, so both
   stay releasable. */
value ppr_arena_blit(value src, value dst, value cells)
{
  memcpy(Caml_ba_data_val(dst), Caml_ba_data_val(src),
         (size_t)Long_val(cells) * sizeof(intnat));
  return Val_unit;
}

/* Free [ba]'s storage now and leave it a zero-length array over NULL,
   so its finaliser frees NULL. Storage that a view shares (it has a
   proxy) or that the array does not own is left to the finaliser:
   freeing it here would free it twice. */
value ppr_arena_free(value ba)
{
  struct caml_ba_array *b = Caml_ba_array_val(ba);
  if ((b->flags & CAML_BA_MANAGED_MASK) == CAML_BA_MANAGED && b->proxy == NULL) {
    free(b->data);
    b->data = NULL;
    b->dim[0] = 0;
  }
  return Val_unit;
}
