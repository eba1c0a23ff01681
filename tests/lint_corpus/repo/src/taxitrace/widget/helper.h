// Included by another src/ header (used.h): must not be flagged.
int Helper();
