# Smoke run of bench_figures, the binary behind every §6 table, figure
# and ablation: --list names the 16 figure-table rows, `--figure all` at
# small scale exits 0 and prints one header per row, and usage errors
# (an unknown figure, an unknown flag, a repeated flag) exit 2.
#
# Usage:
#   cmake -DBENCH_FIGURES=<binary> -P bench_figures_smoke.cmake

if(NOT BENCH_FIGURES)
  message(FATAL_ERROR "bench_figures_smoke.cmake needs -DBENCH_FIGURES")
endif()

execute_process(COMMAND ${BENCH_FIGURES} --list
  OUTPUT_VARIABLE listing ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--list exited with ${rc}\n${err}")
endif()
string(REGEX MATCHALL "(^|\n)[a-z0-9-]+ " names "${listing}")
string(REGEX REPLACE "(\n| )" "" names "${names}")
list(LENGTH names count)
if(NOT count EQUAL 16)
  message(FATAL_ERROR "--list names ${count} figures, not 16:\n${listing}")
endif()

execute_process(COMMAND ${BENCH_FIGURES} --figure all --scale 0.05 --mc 20
  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--figure all exited with ${rc}\nstderr:\n${err}")
endif()
foreach(name IN LISTS names)
  string(REGEX MATCHALL "(^|\n)== ${name}: " headers "${out}")
  list(LENGTH headers count)
  if(NOT count EQUAL 1)
    message(FATAL_ERROR "--figure all printed ${count} headers for ${name}")
  endif()
endforeach()
message(STATUS "--figure all: one header for each of the 16 figures")

foreach(bad "--figure;nope" "--figure;fig6;--sims;20"
        "--figure=table5;--figure;table2" "--figure;table5;--mc;-1")
  execute_process(COMMAND ${BENCH_FIGURES} ${bad}
    OUTPUT_QUIET ERROR_QUIET RESULT_VARIABLE rc)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "usage error '${bad}': expected exit 2, got ${rc}")
  endif()
endforeach()
message(STATUS "usage errors: exit 2")
