# codegen.HotHelpersInline: the count engines' per-step functions are
# marked [[gnu::flatten]], so their whole call tree (the protocol's
# interact / encode / apply, Rng::below, sample_geometric, the structure
# kernels, the rank tracker behind a burst's observer) is inlined into
# them. GCC's inliner otherwise works against a budget for the whole
# translation unit (inline-unit-growth): ppsle_run holds every protocol,
# engine and stop in one unit, and there it outlined those callees, with
# no other visible change: flattening cut perfbench's ring-ssle-2k wall
# time by about a quarter.
#
# The script checks the rule, not a symbol list: it disassembles every
# out-of-line copy of a flattened function in the built binary and fails
# on any call or tail jump to a function that names ppsim (a ppsim
# function, or a library template on a ppsim type), except the cold paths
# allowlisted below. It also keeps the older nm check for
# Sublinear-Time-SSR's roster pass (`Roster::unite`) and `Name`
# comparison, which a sublinear-h1 profile showed hot: the agent array's
# step is not flattened, so those stay pinned with always_inline and must
# have no out-of-line symbol.
#
# Run by CTest (and by CI against its -O2 ppsle_run) as
#   cmake -DNM=<nm> -DOBJDUMP=<objdump> -DBINARY=<ppsle_run>
#         -DCOMPILER=<id> -DBUILD_TYPE=<type> -P codegen_hot_helpers.cmake
# It only checks GCC Release builds: other compilers and build types inline
# differently, so it prints a "skipped" line, which CTest reports as
# skipped.

# The flattened functions, as regular expressions for the name nm prints
# (demangled, or mangled where the demangler gives up on a nested lambda).
set(flattened "BatchSimulation.*step_array"
              "BatchSimulation<.*>::step_structured\\(\\)"
              "BatchSimulation<.*>::step_general\\(\\)"
              "RingSimulation<.*>::step\\(\\)")
# Calls a flattened function may keep, each a cold path kept out of line.
# The array arm's entry fill (O(|Q|) scan of the counts, once per entry),
# a churn crash on the geometric paths (a count-tree draw and two eager
# count deltas, once per crash), and the ring's churn crash and crash
# fast-forward (once per crash) are [[gnu::noinline]]: flattened into
# every step instantiation they only grew the binary.
set(cold_calls "ppsim::BatchSimulation<.*>::enter_array_arm\\("
               "ppsim::BatchSimulation<.*>::crash_uniform_agent\\("
               "ppsim::RingSimulation<.*>::crash_uniform_agent\\("
               "ppsim::RingSimulation<.*>::crash_fast_forward\\(")
list(JOIN cold_calls "|" cold_call)
# Helpers of the unflattened agent array that must have no text symbol.
# `operator<=>` is matched with its Name argument only.
set(helpers "::Roster::unite\\(" "ppsim::operator<=>\\(ppsim::Name ")

if(NOT COMPILER STREQUAL "GNU" OR NOT BUILD_TYPE STREQUAL "Release")
  message("codegen check skipped: needs a GCC Release build "
          "(compiler '${COMPILER}', build type '${BUILD_TYPE}')")
  return()
endif()

execute_process(COMMAND ${NM} -C -S ${BINARY}
                OUTPUT_VARIABLE symbols
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${NM} -C -S ${BINARY} failed (${status})")
endif()

string(REPLACE "\n" ";" lines "${symbols}")
set(out_of_line "")
set(ranges "")
set(unseen ${flattened})
foreach(line IN LISTS lines)
  if(NOT line MATCHES "^([0-9a-f]+) ([0-9a-f]+) [tTwW] (.*)$")
    continue()
  endif()
  set(address "${CMAKE_MATCH_1}")
  set(size "${CMAKE_MATCH_2}")
  set(name "${CMAKE_MATCH_3}")
  foreach(helper IN LISTS helpers)
    if(name MATCHES "${helper}")
      list(APPEND out_of_line "${name}")
    endif()
  endforeach()
  foreach(pattern IN LISTS flattened)
    if(name MATCHES "${pattern}")
      list(APPEND ranges "${address}:${size}")
      list(REMOVE_ITEM unseen "${pattern}")
      break()
    endif()
  endforeach()
endforeach()

if(out_of_line)
  string(REPLACE ";" "\n  " listed "${out_of_line}")
  message(FATAL_ERROR "hot helpers compiled out of line:\n  ${listed}")
endif()
# A renamed engine function would otherwise pass unchecked.
if(unseen)
  message(FATAL_ERROR "no out-of-line copy of a flattened function "
          "matches: ${unseen}")
endif()

set(calls "")
foreach(range IN LISTS ranges)
  string(REPLACE ":" ";" range "${range}")
  list(GET range 0 address)
  list(GET range 1 size)
  math(EXPR stop "0x${address} + 0x${size}" OUTPUT_FORMAT HEXADECIMAL)
  execute_process(COMMAND ${OBJDUMP} -d -C --no-show-raw-insn
                          --start-address=0x${address} --stop-address=${stop}
                          ${BINARY}
                  OUTPUT_VARIABLE listing
                  RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "${OBJDUMP} -d ${BINARY} failed (${status})")
  endif()
  string(REPLACE "\n" ";" listing "${listing}")
  set(function "")
  foreach(line IN LISTS listing)
    if(line MATCHES "^[0-9a-f]+ <(.*)>:$")
      set(function "${CMAKE_MATCH_1}")
    elseif(line MATCHES "[ \t](call|jmp)[a-z]*[ \t]+[0-9a-f]+ <(.*)>$")
      set(target "${CMAKE_MATCH_2}")
      # A jump inside the function names it with an offset.
      if(target MATCHES "ppsim" AND NOT target MATCHES "\\+0x[0-9a-f]+$"
         AND NOT target MATCHES "${cold_call}")
        list(APPEND calls "${function}\n    calls ${target}")
      endif()
    endif()
  endforeach()
endforeach()

if(calls)
  list(REMOVE_DUPLICATES calls)
  string(REPLACE ";" "\n  " listed "${calls}")
  message(FATAL_ERROR "flattened engine steps call out of line:\n  ${listed}")
endif()
list(LENGTH ranges checked)
message("hot helpers inline: ${helpers}; ${checked} flattened engine steps "
        "call no ppsim function out of line")
