// tt-lint: allow-file(test-only-module): kept for a planned caller; the
// suppression applies although src/ is outside this case's lint targets.
int Exempt();
