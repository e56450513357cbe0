# Golden end-to-end regression over the uic_run binary (ISSUE 4).
#
# Drives the real CLI on pinned tiny networks and compares the reports
# byte-for-byte with tests/golden/ (all invocations use --no-timing, the
# only nondeterministic column), then checks that each error path exits
# with its documented code: 1 for a solver/problem error, 2 for a usage
# error. An exact code is the bar, so a crash (134) never passes.
# Everything the reports contain — generator topology, RR pools, seed
# selection, welfare estimation — is deterministic in the flags alone
# (pool content depends on the seed only; see rr_collection.h), so an
# exact match is the right bar.
#
# Usage:
#   cmake -DUIC_RUN=<binary> -DGOLDEN_DIR=<dir> -DWORK_DIR=<dir>
#         -P golden_uic_run.cmake

if(NOT UIC_RUN OR NOT GOLDEN_DIR OR NOT WORK_DIR)
  message(FATAL_ERROR "golden_uic_run.cmake needs -DUIC_RUN, -DGOLDEN_DIR and -DWORK_DIR")
endif()

function(run_and_compare name golden)
  execute_process(
    COMMAND ${UIC_RUN} ${ARGN}
    OUTPUT_VARIABLE got
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${name}: uic_run exited with ${rc}\nstderr:\n${err}")
  endif()
  file(READ ${GOLDEN_DIR}/${golden} want)
  if(NOT got STREQUAL want)
    message(FATAL_ERROR "${name}: report differs from ${golden}\n"
                        "--- got ---\n${got}\n--- want ---\n${want}")
  endif()
  message(STATUS "${name}: exact match against ${golden}")
endfunction()

function(expect_exit name code)
  execute_process(
    COMMAND ${UIC_RUN} ${ARGN}
    OUTPUT_QUIET ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  if(NOT rc STREQUAL code)
    message(FATAL_ERROR "${name}: expected exit ${code}, got ${rc}\n"
                        "stderr:\n${err}")
  endif()
  message(STATUS "${name}: exit ${rc} as expected")
endfunction()

# --- golden report matches --------------------------------------------

run_and_compare(bundle_grd_report uic_run_bundle_grd.txt
  --algorithm bundle-grd --network er --nodes 200 --edges 1200 --net-seed 5
  --budget 3 --mc 200 --eval-seed 9 --seed 4 --workers 2 --no-timing)

# Worker-count invariance (the golden above was pinned at --workers 2):
# the identical report at 1 and 8 workers proves the seed-only determinism
# contract holds across the thread-pool fan-out.
run_and_compare(bundle_grd_report_workers_1 uic_run_bundle_grd.txt
  --algorithm bundle-grd --network er --nodes 200 --edges 1200 --net-seed 5
  --budget 3 --mc 200 --eval-seed 9 --seed 4 --workers 1 --no-timing)
run_and_compare(bundle_grd_report_workers_8 uic_run_bundle_grd.txt
  --algorithm bundle-grd --network er --nodes 200 --edges 1200 --net-seed 5
  --budget 3 --mc 200 --eval-seed 9 --seed 4 --workers 8 --no-timing)

# The same instance under LT: welfare is estimated under the model the
# allocation was chosen for (the daemon's answer too), at every worker
# count.
foreach(workers 1 2 8)
  run_and_compare(lt_report_workers_${workers} uic_run_lt.txt
    --algorithm bundle-grd --network er --nodes 200 --edges 1200 --net-seed 5
    --budget 3 --mc 200 --eval-seed 9 --seed 4 --workers ${workers}
    --model lt --no-timing)
endforeach()

run_and_compare(bdhs_report uic_run_bdhs.txt
  --algorithm bdhs --network er --nodes 150 --edges 900 --net-seed 5
  --budget 2 --mc 100 --eval-seed 9 --seed 4 --workers 2 --no-timing)

# Sweep mode: the CSV report (warm reuse across three budget points, two
# algorithms) must match byte-for-byte too.
execute_process(
  COMMAND ${UIC_RUN} --sweep 2:6:2 --algorithms bundle-grd,bdhs
          --network er --nodes 200 --edges 1200 --net-seed 5
          --mc 200 --eval-seed 9 --seed 4 --workers 2 --no-timing
          --report-csv ${WORK_DIR}/sweep_report.csv
  OUTPUT_QUIET ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "sweep_report: uic_run exited with ${rc}\n${err}")
endif()
file(READ ${WORK_DIR}/sweep_report.csv got)
file(READ ${GOLDEN_DIR}/uic_run_sweep.csv want)
if(NOT got STREQUAL want)
  message(FATAL_ERROR "sweep_report: CSV differs from golden\n"
                      "--- got ---\n${got}\n--- want ---\n${want}")
endif()
message(STATUS "sweep_report: exact match against uic_run_sweep.csv")

# --- error paths exit with their documented code ----------------------

# Solver/problem errors: exit 1 with the InvalidArgument/NotFound message.
expect_exit(unknown_algorithm 1
  --algorithm no-such-algorithm --network er --nodes 50 --edges 200)
expect_exit(unknown_network 1
  --algorithm bundle-grd --network mars)
# Specs outside the exp/specs.h limits (each once crashed uic_run or, for
# p, was silently accepted).
expect_exit(pa_below_min_nodes 1
  --algorithm bundle-grd --network pa --nodes 5)
expect_exit(er_below_min_nodes 1
  --algorithm bundle-grd --network er --nodes 1)
expect_exit(items_above_max 1
  --algorithm bundle-grd --network er --nodes 50 --edges 200
  --config additive --items 40)
# Item counts whose 2^items tables or items · 3^(items - 1) generation
# once took the host's memory or seconds: cone configs and anything that
# evaluates utilities (an estimate, mc-greedy, bdhs) stop at 20 items,
# levelwise at 16.
expect_exit(cone_max_items_above_max 1
  --algorithm bundle-grd --network er --nodes 50 --edges 200
  --config cone-max --items 21 --mc 0)
expect_exit(levelwise_items_above_max 1
  --algorithm bundle-grd --network er --nodes 50 --edges 200
  --config levelwise --items 17 --mc 0)
expect_exit(estimate_items_above_max 1
  --algorithm bundle-grd --network er --nodes 50 --edges 200
  --config additive --items 21 --mc 10)
foreach(algorithm mc-greedy bdhs)
  expect_exit(${algorithm}_items_above_max 1
    --algorithm ${algorithm} --network er --nodes 50 --edges 200
    --config additive --items 21 --mc 0)
endforeach()
expect_exit(negative_scale 1
  --algorithm bundle-grd --network douban-movie --scale -1)
# A stand-in scale whose node count is 2^32 - 1 or more (once undefined
# behaviour converting 4e16 to a 32-bit node count).
expect_exit(stand_in_scale_above_max 1
  --algorithm bundle-grd --network twitter --scale 1e12)
expect_exit(probability_above_one 1
  --algorithm bundle-grd --network er --nodes 50 --edges 200 --p 2.5)

# Solve limits shared with the daemon (exp/solve.h): each once crashed
# uic_run (bad_alloc, SIGFPE) or, for eps, overflowed theta silently.
expect_exit(ell_above_max 1
  --algorithm bundle-grd --network er --nodes 50 --edges 200 --ell 1e9)
expect_exit(eps_below_min 1
  --algorithm bundle-grd --network er --nodes 50 --edges 200 --eps 1e-9)
expect_exit(negative_mc 1
  --algorithm bundle-grd --network er --nodes 50 --edges 200 --mc -1)
# Solver tuning limits (Solver::Validate): simulation counts in [1, 1e6],
# the BDHS edge probability in (0, 1] and its discount in [0, 1]. Negative
# simulation counts once died of SIGFPE, an out-of-range or NaN edge
# probability aborted on a CHECK, and a NaN discount reported a NaN
# objective.
expect_exit(negative_greedy_sims 1
  --algorithm mc-greedy --network er --nodes 50 --edges 200 --mc 0
  --greedy-sims -1)
expect_exit(negative_cim_sims 1
  --algorithm rr-cim --network er --nodes 50 --edges 200 --mc 0
  --cim-sims -1)
foreach(p 0 2 nan)
  expect_exit(bdhs_concave_uniform_p_${p} 1
    --algorithm bdhs --bdhs-variant concave --network er --nodes 50
    --edges 200 --mc 0 --uniform-p ${p})
endforeach()
expect_exit(kappa_nan 1
  --algorithm bdhs --network er --nodes 50 --edges 200 --mc 0 --kappa nan)
# The kernel spellings are scan and skip only.
expect_exit(sampling_kernel_auto 1
  --algorithm bundle-grd --network er --nodes 50 --edges 200 --mc 0
  --sampling-kernel auto)
# Seeds are in [0, 2^63 - 1], the daemon's limit too (each once ran on a
# seed wrapped to 2^64 - k).
expect_exit(negative_seed 1
  --algorithm bundle-grd --network er --nodes 50 --edges 200 --mc 0
  --seed -1)
expect_exit(negative_net_seed 1
  --algorithm bundle-grd --network er --nodes 50 --edges 200 --mc 0
  --net-seed -5)
expect_exit(negative_param_seed 1
  --algorithm bundle-grd --network er --nodes 50 --edges 200 --mc 0
  --config levelwise --param-seed -1)
expect_exit(negative_eval_seed 1
  --algorithm bundle-grd --network er --nodes 50 --edges 200 --mc 10
  --eval-seed -1)
# A node count whose + 1 wraps the 32-bit CSR offsets (once SIGSEGV), from
# a file and from the generator.
file(WRITE ${WORK_DIR}/wrap_graph.txt "nodes 4294967295\nedges 0\n")
expect_exit(graph_file_nodes_wrap 1
  --algorithm bundle-grd --graph ${WORK_DIR}/wrap_graph.txt)
expect_exit(er_nodes_wrap 1
  --algorithm bundle-grd --network er --nodes 4294967295 --edges 0
  --config none)

# Usage errors: exit 2.
# --workers is bounded before any thread starts.
expect_exit(negative_workers 2
  --algorithm bundle-grd --network er --nodes 50 --edges 200 --workers -1)
expect_exit(workers_above_max 2
  --algorithm bundle-grd --network er --nodes 50 --edges 200
  --workers 100000)
expect_exit(malformed_numeric_flag 2
  --algorithm bundle-grd --network er --nodes 50 --edges 200 --budget xyz)
expect_exit(malformed_budget_list 2
  --algorithm bundle-grd --network er --nodes 50 --edges 200 --budgets 3,,4)
expect_exit(malformed_sweep_spec 2
  --sweep 10:5:2 --algorithms bundle-grd --network er --nodes 50 --edges 200)
expect_exit(missing_algorithm_flag 2
  --network er --nodes 50 --edges 200)
# An unknown flag (each once ran as if it were absent: the skip kernel,
# BDHS-Step).
expect_exit(unknown_flag_sampling_kernal 2
  --algorithm bundle-grd --network er --nodes 50 --edges 200 --mc 0
  --sampling-kernal scan)
expect_exit(unknown_flag_bdhs_varient 2
  --algorithm bdhs --network er --nodes 50 --edges 200 --mc 0
  --bdhs-varient concave)
# A repeated flag (each once ran on the first value: 50 nodes, b=3,3).
expect_exit(repeated_flag_nodes 2
  --algorithm bundle-grd --network er --nodes 50 --edges 200 --mc 0
  --nodes 1e3)
expect_exit(repeated_flag_budget 2
  --algorithm bundle-grd --network er --nodes 50 --edges 200 --mc 0
  --budget 3 --budget 4)
