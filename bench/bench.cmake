# Benchmark binaries land in ${CMAKE_BINARY_DIR}/bench so that
# `for b in build/bench/*; do $b; done` runs exactly the benchmarks.
function(alp_add_bench name)
  add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cpp)
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
  target_link_libraries(${name} PRIVATE ${ARGN})
endfunction()

alp_add_bench(fig7_conduct_speedup alp_machine alp_frontend)
alp_add_bench(fig1_static_example alp_codegen alp_frontend)
alp_add_bench(fig3_wavefront alp_codegen alp_frontend)
alp_add_bench(fig5_dynamic_example alp_machine alp_frontend)
alp_add_bench(ablation_constraints alp_core alp_frontend)
alp_add_bench(ablation_join_order alp_machine alp_frontend)
alp_add_bench(ablation_optimizations alp_machine alp_frontend)
alp_add_bench(ablation_blocksize alp_machine alp_frontend)
alp_add_bench(ablation_fusion alp_machine alp_frontend)
alp_add_bench(ext_multicomputer alp_codegen alp_frontend)

# Figure 7 at the paper's own problem size (1K x 1K, 5 steps): the binary
# exits nonzero unless all five shape checks hold. It takes ~0.2 s in a
# Release build and ~2 s in a Debug+ASan one; the timeout leaves room for
# slower CI machines.
add_test(NAME fig7_paper_size COMMAND fig7_conduct_speedup 1023 5)
set_tests_properties(fig7_paper_size PROPERTIES TIMEOUT 120)
