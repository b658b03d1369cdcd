# Byte-identical bench JSON check, run as a ctest.
#
#   cmake -DTOOL=<bench binary> -DARGS=<flag;flag> -DWANT=<file>
#         -DOUT=<file> -P check_bench_json.cmake
#
# Runs the bench with ARGS plus --json=OUT and requires the produced
# JSON to match the committed file byte for byte. The committed
# BENCH_bcdepth.json and BENCH_shards.json hold only simulated
# quantities, so they are reproducible on any host. Regenerate one
# deliberately with:
#   ./build/bench/ablation_astriflash --only-bc-depth --jobs=0 \
#       --json=BENCH_bcdepth.json

get_filename_component(out_dir "${OUT}" DIRECTORY)
file(MAKE_DIRECTORY "${out_dir}")

execute_process(
    COMMAND "${TOOL}" ${ARGS} --json=${OUT}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE stdout_text
    ERROR_VARIABLE stderr_text)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR
        "${TOOL} ${ARGS} failed (rc=${rc}):\n"
        "${stdout_text}\n${stderr_text}")
endif()

execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files "${OUT}" "${WANT}"
    RESULT_VARIABLE same)
if(NOT same EQUAL 0)
    execute_process(
        COMMAND diff -u "${WANT}" "${OUT}"
        OUTPUT_VARIABLE diff_text
        ERROR_VARIABLE diff_text)
    string(SUBSTRING "${diff_text}" 0 4000 diff_head)
    message(FATAL_ERROR
        "bench JSON diverged from the committed ${WANT}.\nIf the "
        "change is intentional, regenerate the file and explain the "
        "divergence in the PR.\n${diff_head}")
endif()
