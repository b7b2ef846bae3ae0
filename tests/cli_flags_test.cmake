# CLI flag smoke for tools/taskbench: each subcommand must accept its
# documented flags (exit 0) and refuse, naming it, a flag it would
# ignore (non-zero exit). ctest runs it as
#   cmake -DTASKBENCH=<binary> -DDATA_DIR=<tests/data> -DOUT_DIR=<dir>
#         -P cli_flags_test.cmake
file(MAKE_DIRECTORY ${OUT_DIR})
set(failures 0)

macro(expect_ok)
  execute_process(COMMAND ${TASKBENCH} ${ARGN}
    WORKING_DIRECTORY ${OUT_DIR}
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(SEND_ERROR "expected exit 0: taskbench ${ARGN}\n  got ${rc}: ${err}")
    math(EXPR failures "${failures} + 1")
  endif()
endmacro()

macro(expect_refused flag)
  execute_process(COMMAND ${TASKBENCH} ${ARGN}
    WORKING_DIRECTORY ${OUT_DIR}
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(rc EQUAL 0 OR NOT err MATCHES "--${flag}")
    message(SEND_ERROR
      "expected --${flag} refused: taskbench ${ARGN}\n  got ${rc}: ${err}")
    math(EXPR failures "${failures} + 1")
  endif()
endmacro()

set(wf ${DATA_DIR}/wf/montage_trimmed.json)

# Documented flags pass.
expect_ok(run --algorithm=kmeans --dataset=kmeans-1gb --grid=16x1
  --clusters=4 --iterations=2 --processor=gpu --storage=shared --policy=cost
  --hybrid --disable-hedging --disable-escalation --faults=storage:p0.001
  --retries=2 --retry-backoff=0.1 --csv=run.csv --trace=trace.json
  --flow-events --metrics-json=metrics.json --gantt)
expect_ok(run --algorithm=matmul-fma --rows=4096 --cols=4096 --grid=4x4
  --storage=local --policy=locality)
expect_ok(exec --executor=threads --workers=2 --n=64 --block-dim=32)
expect_ok(exec --workers=2proc --n=64)
expect_ok(serve --executor=sim --runners=1 --duration=0.2 --tenants=2
  --rate=4 --skew=2 --arrivals=bursty --seed=3 --max-in-flight=8
  --max-queued=8 --deadline=5 --cancel-every=3)
expect_ok(import ${wf} --executor=threads --workers=2 --policy=locality
  --export=export.json)
expect_ok(import ${wf} --stats-only)
expect_ok(sweep --algorithm=matmul --dataset=matmul-128mb --storage=local
  --csv=sweep.csv)
expect_ok(recommend --algorithm=kmeans --dataset=kmeans-100mb)
expect_ok(dag --algorithm=kmeans --grid=4x1 --iterations=2)
expect_ok(dag --algorithm=transpose --grid=2x2)

# Unknown flags and flags the command would ignore are refused.
expect_refused(no-such-flag exec --n=256 --block-dim=128 --no-such-flag=3)
expect_refused(trace exec --n=64 --trace=exec_trace.json)
expect_refused(metrics-json exec --n=64 --metrics-json=exec_metrics.json)
expect_refused(grdi run --grdi=4x4)
expect_refused(flow-events run --grid=4x4 --flow-events)
expect_refused(clusters run --algorithm=matmul --clusters=3)
expect_refused(rows run --dataset=matmul-8gb --rows=64)
expect_refused(bogus serve --executor=sim --duration=0.1 --bogus=1)
expect_refused(executor import ${wf} --stats-only --executor=threads)
expect_refused(grid sweep --algorithm=matmul --grid=4x4)
expect_refused(processor recommend --processor=gpu)
expect_refused(csv recommend --csv=rec.csv)
expect_refused(bogus correlate --bogus)
expect_refused(iterations dag --algorithm=matmul --iterations=3)

# Path flags given bare are refused instead of writing a file named
# "true"; boolean flags (--flow-events, --stats-only) stay bare above.
file(REMOVE ${OUT_DIR}/true)
expect_refused(trace run --grid=4x4 --trace)
expect_refused(metrics-json run --grid=4x4 --metrics-json)
expect_refused(csv sweep --algorithm=matmul --csv)
expect_refused(export import ${wf} --export)
if(EXISTS ${OUT_DIR}/true)
  message(SEND_ERROR "a bare path flag wrote a file named 'true'")
  math(EXPR failures "${failures} + 1")
endif()

if(failures GREATER 0)
  message(FATAL_ERROR "${failures} CLI flag check(s) failed")
endif()
