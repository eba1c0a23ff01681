#include "taxitrace/widget/used.h"

int main() { return Used(); }
