# Runs nfvpred with ARGS (space-separated) and requires exit code 1 plus
# EXPECT (a regex) on stderr.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${NFVPRED} ${args}
                RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 1 OR NOT err MATCHES "${EXPECT}")
  message(FATAL_ERROR "nfvpred ${ARGS}: expected exit 1 and '${EXPECT}', "
                      "got exit ${rc}: ${err}")
endif()
