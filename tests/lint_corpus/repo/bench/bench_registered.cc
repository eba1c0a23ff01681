// Declared via taxitrace_bench(bench_registered); must not be flagged.
#include "taxitrace/widget/measured.h"
