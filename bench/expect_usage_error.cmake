# Run `${BENCH} ${ARG}` and pass only when the bench exits with a
# nonzero status and names ${ARG} in its output: a bench must refuse a
# flag it does not know instead of running with defaults.
#
#   cmake -DBENCH=<binary> -DARG=<flag> -P expect_usage_error.cmake
execute_process(COMMAND "${BENCH}" "${ARG}"
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE out)
if(NOT rc MATCHES "^[1-9][0-9]*$")
    message(FATAL_ERROR "${BENCH} ${ARG}: want a nonzero exit, got "
                        "'${rc}'\n${out}")
endif()
string(FIND "${out}" "${ARG}" pos)
if(pos EQUAL -1)
    message(FATAL_ERROR "${BENCH} ${ARG}: output does not name the "
                        "flag\n${out}")
endif()
