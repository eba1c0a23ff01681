// expect(test-only-module)
// Included only by its own .cc and by a test: nothing that ships uses it.
int Orphan();
