# Sanitizer support: configure with -DTAXITRACE_SANITIZE=<list>.
#
# Supported values (semicolon- or comma-separated):
#   address    AddressSanitizer
#   undefined  UndefinedBehaviorSanitizer, plus float-cast-overflow
#   thread     ThreadSanitizer
#   leak       LeakSanitizer (implied by address on Linux)
#
# address and undefined compose ("address;undefined" is the CI matrix job);
# thread is mutually exclusive with address/leak. Flags are applied globally
# so every library, test, bench and example target — and gtest/benchmark
# code inlined into them — is instrumented consistently.

set(TAXITRACE_SANITIZE "" CACHE STRING
    "Semicolon-separated sanitizer list: address;undefined or thread")

if(TAXITRACE_SANITIZE)
  # Accept comma separators too ("address,undefined").
  string(REPLACE "," ";" _tt_sanitizers "${TAXITRACE_SANITIZE}")

  set(_tt_valid address undefined thread leak)
  foreach(_tt_s IN LISTS _tt_sanitizers)
    if(NOT _tt_s IN_LIST _tt_valid)
      message(FATAL_ERROR
        "TAXITRACE_SANITIZE: unknown sanitizer '${_tt_s}' "
        "(expected a list of: ${_tt_valid})")
    endif()
  endforeach()

  if("thread" IN_LIST _tt_sanitizers AND
     ("address" IN_LIST _tt_sanitizers OR "leak" IN_LIST _tt_sanitizers))
    message(FATAL_ERROR
      "TAXITRACE_SANITIZE: thread cannot be combined with address/leak")
  endif()

  string(REPLACE ";" "," _tt_fsan "${_tt_sanitizers}")
  set(_tt_san_flags -fsanitize=${_tt_fsan} -fno-omit-frame-pointer)
  if("undefined" IN_LIST _tt_sanitizers)
    # GCC's `undefined` group leaves out float-to-int casts out of range
    # (NaN, infinities, huge values), which are undefined behaviour too.
    list(APPEND _tt_san_flags -fsanitize=float-cast-overflow)
    # Abort on UB instead of printing and continuing, so ctest fails.
    list(APPEND _tt_san_flags -fno-sanitize-recover=all)
  endif()

  add_compile_options(${_tt_san_flags})
  add_link_options(${_tt_san_flags})

  # Sanitized builds are for finding bugs: keep debug info and frame
  # pointers useful even when the cache says Release.
  add_compile_options(-g)

  message(STATUS "Sanitizers enabled: ${_tt_sanitizers}")
endif()
