# The benchmark driver, linked against the evm_* libraries exactly as the
# tier-1 build produces them.  Included at the end of the top-level
# directory by inject.cmake.
add_executable(perfbench_driver
  ${PERFBENCH_SOURCE_DIR}/src/Batch.cpp
  ${PERFBENCH_SOURCE_DIR}/src/Common.cpp
  ${PERFBENCH_SOURCE_DIR}/src/main.cpp
  ${PERFBENCH_SOURCE_DIR}/src/Probes.cpp
  ${PERFBENCH_SOURCE_DIR}/src/Serve.cpp
  ${PERFBENCH_SOURCE_DIR}/src/Spans.cpp
)
target_include_directories(perfbench_driver PRIVATE ${PERFBENCH_SOURCE_DIR}/src)
target_link_libraries(perfbench_driver PRIVATE evm_server evm_harness
  Threads::Threads)
