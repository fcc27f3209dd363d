# CLI round trip over faultyrank_fsck, run as a ctest (tools/CMakeLists.txt):
#   create --files 2000 --osts 4 --seed 7, inject --scenario all --seed 9;
#   check --json must match the committed golden byte for byte and exit 1;
#   check --repair --undo must exit 0;
#   restore --undo must give back the injected image byte for byte.
#
#   cmake -DFSCK=<faultyrank_fsck> -DGOLDEN=<golden.json> -DWORK=<dir>
#         -P cli_roundtrip.cmake
cmake_minimum_required(VERSION 3.16)

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")
set(IMAGE "${WORK}/image")

# run(<expected exit> <args...>): runs faultyrank_fsck, stdout to
# ${WORK}/stdout, and fails unless it exits with <expected exit>.
function(run expected)
  execute_process(COMMAND "${FSCK}" ${ARGN}
    OUTPUT_FILE "${WORK}/stdout"
    ERROR_VARIABLE err
    RESULT_VARIABLE code)
  if(NOT code STREQUAL expected)
    message(FATAL_ERROR
      "faultyrank_fsck ${ARGN}: exit ${code}, expected ${expected}\n${err}")
  endif()
endfunction()

# same(<a> <b> <what>): fails unless the two files are byte-identical.
function(same a b what)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${a}" "${b}"
    RESULT_VARIABLE differ)
  if(differ)
    message(FATAL_ERROR "${what}: ${a} differs from ${b}")
  endif()
endfunction()

run(0 create "${IMAGE}" --files 2000 --osts 4 --seed 7)
run(0 inject "${IMAGE}" --scenario all --seed 9)
execute_process(COMMAND "${CMAKE_COMMAND}" -E copy "${IMAGE}" "${WORK}/injected")

run(1 check "${IMAGE}" --json)
same("${WORK}/stdout" "${GOLDEN}" "check --json")

run(0 check "${IMAGE}" --repair --undo "${WORK}/undo")
run(0 restore "${IMAGE}" --undo "${WORK}/undo")
same("${IMAGE}" "${WORK}/injected" "restore --undo")
