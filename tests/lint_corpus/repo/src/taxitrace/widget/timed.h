// Included by perfbench/workload.cc: must not be flagged.
int Timed();
