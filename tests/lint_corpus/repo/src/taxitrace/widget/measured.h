// Included by bench/bench_registered.cc: must not be flagged.
int Measured();
