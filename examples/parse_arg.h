// Whole-number command-line argument parsing shared by the example
// binaries, so a malformed or out-of-range number is a usage error
// instead of being silently read as 0 or truncated.

#ifndef TAXITRACE_EXAMPLES_PARSE_ARG_H_
#define TAXITRACE_EXAMPLES_PARSE_ARG_H_

#include <limits>
#include <utility>

#include "taxitrace/common/strings.h"

namespace taxitrace {

// Parses a whole decimal integer argument into `*out`. False when the
// text is malformed, the value does not fit T, or it is below `min`;
// callers then exit with the usage code 2.
template <typename T>
bool ParseArg(const char* text, T* out,
              T min = std::numeric_limits<T>::min()) {
  const Result<int64_t> value = ParseInt64(text);
  if (!value.ok() || !std::in_range<T>(*value) ||
      static_cast<T>(*value) < min) {
    return false;
  }
  *out = static_cast<T>(*value);
  return true;
}

}  // namespace taxitrace

#endif  // TAXITRACE_EXAMPLES_PARSE_ARG_H_
