/* The process CPU clock, for the benchmark's gated timings (see
   report.ml). */

#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

double ppr_bench_cpu_seconds_unboxed(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
}

value ppr_bench_cpu_seconds(value unit)
{
  return caml_copy_double(ppr_bench_cpu_seconds_unboxed(unit));
}
