// Its own .cc including it does not make the module used.
#include "taxitrace/widget/orphan.h"

int Orphan() { return 1; }
