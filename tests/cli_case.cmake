# Runs edacloud_cli command lines for one ctest case and checks the result.
# Pass these with -D before -P:
#   CLI      path to the edacloud_cli binary
#   ARGS     the command line, its tokens separated by '|'
#   EXIT     the exit code it must return
#   STDERR   a regular expression its stderr must match (optional)
#   SAME_AS  a second command line that must also exit EXIT (optional);
#   FILES    then two paths, '|'-separated: the file each line writes,
#            which must hold the same bytes

function(run_line line)
  string(REPLACE "|" ";" tokens "${line}")
  execute_process(COMMAND "${CLI}" ${tokens}
    RESULT_VARIABLE code OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT code STREQUAL "${EXIT}")
    message(FATAL_ERROR "'${line}' exited ${code}, want ${EXIT}\n${err}")
  endif()
  if(DEFINED STDERR AND NOT err MATCHES "${STDERR}")
    message(FATAL_ERROR "'${line}' stderr does not match '${STDERR}':\n${err}")
  endif()
endfunction()

run_line("${ARGS}")
if(DEFINED SAME_AS)
  run_line("${SAME_AS}")
  string(REPLACE "|" ";" files "${FILES}")
  list(GET files 0 first)
  list(GET files 1 second)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
    "${first}" "${second}" RESULT_VARIABLE differ)
  if(NOT differ EQUAL 0)
    message(FATAL_ERROR "${first} and ${second} differ")
  endif()
endif()
