# codegen.HotHelpersInline: the count and ring engines' per-interaction
# helpers, and Sublinear-Time-SSR's roster pass (`Roster::unite`) and
# `Name` comparison, which a sublinear-h1 profile showed hot, must be
# inlined into their callers. GCC's inliner works against a budget for the
# whole translation unit (inline-unit-growth), so an unrelated edit to a
# header that ppsle_run includes can push one of them out of line and cost
# several percent on the benchmark workloads, with no other visible
# change. This script lists the text symbols of the built
# binary with nm and fails if any helper has one.
#
# Run by CTest as
#   cmake -DNM=<nm> -DBINARY=<ppsle_run> -DCOMPILER=<id> -DBUILD_TYPE=<type>
#         -P codegen_hot_helpers.cmake
# It only checks GCC Release builds: other compilers and build types inline
# differently, so it prints a "skipped" line, which CTest reports as
# skipped.
# Each entry is a regular expression for the demangled name up to its
# argument list. `operator<=>` is matched with its Name argument only.
set(helpers "::move_agent\\(" "::refresh_edge\\(" "::array_count_delta\\("
            "::Roster::unite\\(" "ppsim::operator<=>\\(ppsim::Name ")

if(NOT COMPILER STREQUAL "GNU" OR NOT BUILD_TYPE STREQUAL "Release")
  message("codegen check skipped: needs a GCC Release build "
          "(compiler '${COMPILER}', build type '${BUILD_TYPE}')")
  return()
endif()

execute_process(COMMAND ${NM} -C ${BINARY}
                OUTPUT_VARIABLE symbols
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${NM} -C ${BINARY} failed (${status})")
endif()

string(REPLACE "\n" ";" lines "${symbols}")
set(out_of_line "")
foreach(line IN LISTS lines)
  foreach(helper IN LISTS helpers)
    if(line MATCHES " [tTwW] .*${helper}")
      list(APPEND out_of_line "${line}")
    endif()
  endforeach()
endforeach()

if(out_of_line)
  string(REPLACE ";" "\n  " listed "${out_of_line}")
  message(FATAL_ERROR "hot helpers compiled out of line:\n  ${listed}")
endif()
message("hot helpers inline: ${helpers}")
