# Drives re2xolap_repl through one scripted exploration session: ReOLAP
# synthesis, a disaggregation, the SPARQL text, EXPLAIN ANALYZE, a top-k
# proposal undone with `back`, session statistics and a CSV export. Fails
# when the REPL exits non-zero, never lists a disaggregation, prints an
# error line or writes no CSV.
#
#   cmake -DREPL=<path to re2xolap_repl> -DWORK_DIR=<dir> -P repl_session.cmake
set(csv "${WORK_DIR}/repl_session.csv")
set(script "${WORK_DIR}/repl_session.in")
file(REMOVE "${csv}")
file(WRITE "${script}"
  "find Germany | 2014\npick 0\nshow 3\nrefine dis\npick 0\nsparql\n"
  "explain\nrefine topk\nback\nstats\nexport ${csv}\nquit\n")
execute_process(COMMAND "${REPL}" eurostat 3000
  INPUT_FILE "${script}"
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
message("${out}")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "re2xolap_repl exited with '${rc}': ${err}")
endif()
if(NOT out MATCHES "Disaggregate by")
  message(FATAL_ERROR "the session listed no disaggregation")
endif()
if(out MATCHES "error:")
  message(FATAL_ERROR "the session printed an error line")
endif()
if(NOT EXISTS "${csv}")
  message(FATAL_ERROR "export wrote no ${csv}")
endif()
