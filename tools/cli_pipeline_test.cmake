# End-to-end CLI chain: simulate → mine → train → score, then the same
# score through the async streaming ingest runtime.
file(MAKE_DIRECTORY ${WORK_DIR})
set(LOGS ${WORK_DIR}/demo.log)
set(MODEL ${WORK_DIR}/demo.model)

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
