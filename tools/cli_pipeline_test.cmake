# End-to-end CLI chain: simulate → mine → train → score, then the same
# score through the async streaming ingest runtime. Training on a log with
# fewer than window+1 events fails with exit 2 and writes no model.
file(MAKE_DIRECTORY ${WORK_DIR})
set(LOGS ${WORK_DIR}/demo.log)
set(MODEL ${WORK_DIR}/demo.model)

set(SHORT_LOGS ${WORK_DIR}/short.log)
set(SHORT_MODEL ${WORK_DIR}/short.model)
file(REMOVE ${SHORT_MODEL})
file(WRITE ${SHORT_LOGS} "100 link up on port 1\n130 link down on port 1\n"
                         "160 link up on port 2\n")
execute_process(COMMAND ${NFVPRED} train --logs ${SHORT_LOGS}
                        --model ${SHORT_MODEL} --window 3
                RESULT_VARIABLE rc ERROR_VARIABLE short_err)
if(NOT rc EQUAL 2 OR NOT short_err MATCHES "not enough events to train"
   OR EXISTS ${SHORT_MODEL})
  message(FATAL_ERROR "train on a short log: expected exit 2, the error "
                      "and no model file, got ${rc}: ${short_err}")
endif()

execute_process(COMMAND ${NFVPRED} simulate --out ${LOGS} --vpe 1
                        --months 2 --seed 7
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "simulate failed: ${rc}")
endif()

execute_process(COMMAND ${NFVPRED} mine --logs ${LOGS} --max 3
                RESULT_VARIABLE rc OUTPUT_VARIABLE mine_out)
if(NOT rc EQUAL 0 OR NOT mine_out MATCHES "templates from")
  message(FATAL_ERROR "mine failed: ${rc} / ${mine_out}")
endif()

execute_process(COMMAND ${NFVPRED} train --logs ${LOGS} --model ${MODEL}
                        --epochs 2
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "train failed: ${rc}")
endif()

execute_process(COMMAND ${NFVPRED} score --logs ${LOGS} --model ${MODEL}
                RESULT_VARIABLE rc OUTPUT_VARIABLE score_out)
if(NOT rc EQUAL 0 OR NOT score_out MATCHES "warning signature")
  message(FATAL_ERROR "score failed: ${rc} / ${score_out}")
endif()

execute_process(COMMAND ${NFVPRED} score --logs ${LOGS} --model ${MODEL}
                        --async-ingest 1 --ingest-workers 2
                RESULT_VARIABLE rc OUTPUT_VARIABLE async_out)
if(NOT rc EQUAL 0 OR NOT async_out MATCHES "async ingest: [0-9]+ lines")
  message(FATAL_ERROR "async score failed: ${rc} / ${async_out}")
endif()
