// Included by examples/demo.cc: must not be flagged.
#include "taxitrace/widget/helper.h"

int Used();
