// Referenced by tests/CMakeLists.txt; must not be flagged.
// A test including a header does not make its module used.
#include "taxitrace/widget/exempt.h"
#include "taxitrace/widget/orphan.h"
