/* CPU time of the calling thread, which the OCaml Unix library does not
   expose: the reference-core probe times its units with it while another
   domain runs a probe of its own. */

#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

value wfabench_thread_cpu_s(value unit)
{
  struct timespec ts;
  (void)unit;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0)
    return caml_copy_double(0.0);
  return caml_copy_double((double)ts.tv_sec + (double)ts.tv_nsec * 1e-9);
}
