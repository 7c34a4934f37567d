# Smallest program that moves the divider counters: two back-to-back FP
# divides (the second waits on the busy divider, stalls.fpu_busy) and an
# integer divide (blocking divider cycles, stalls.int_div_busy). The FP
# side idles with nothing queued before the first offload and after the
# last (stalls.fp_queue_empty). Used by the schsim_sim_smoke ctest.
    .data
w: .double 6.0, 3.0
    .text
    la a0, w
    fld fa0, 0(a0)
    fld fa1, 8(a0)
    fdiv.d fa2, fa0, fa1
    fdiv.d fa3, fa1, fa0
    li t0, 100
    li t1, 7
    div t2, t0, t1
    fsd fa2, 0(a0)
    ecall
