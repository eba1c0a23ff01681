#include "taxitrace/widget/timed.h"

int main() { return Timed(); }
