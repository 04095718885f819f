# Passed to the repository's configure step as -DCMAKE_PROJECT_INCLUDE (see
# run.py).  It runs right after the top-level project() call and defers
# perfbench.cmake to the end of the top-level CMakeLists.txt, so the
# benchmark is defined inside the repository's own tier-1 configuration:
# same compiler, flags, options and library targets, with no change to the
# repository's build files.
set(PERFBENCH_SOURCE_DIR "${CMAKE_CURRENT_LIST_DIR}")
cmake_language(DEFER CALL include "${PERFBENCH_SOURCE_DIR}/perfbench.cmake")
