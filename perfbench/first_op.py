"""Set-up probe: a fresh interpreter imports the package and makes a workload's first call.

    python3 first_op.py <src dir> <workload> <r> <h> <alpha> <l> <gamma_t_db> <seed>

The caller times the whole process, so work moved from import time into
first use still counts.  Kept free of the benchmark's other modules so it
imports nothing the workload itself would not.
"""

import sys

src, workload = sys.argv[1], sys.argv[2]
r, h, alpha, l, gamma_t_db = map(float, sys.argv[3:8])
seed = int(sys.argv[8])
sys.path.insert(0, src)

import pinchpass as pp  # noqa: E402

if workload != "closed_form":
    import pinchpass.cli  # noqa: E402,F401

p = pp.SystemParams.reference(gamma_t_db=gamma_t_db, r=r, h=h, alpha=alpha, l=l)
if workload == "closed_form":
    # the first configuration's closed forms, as the workload evaluates them
    for fn in (pp.outage_fwnl, pp.outage_fwl, pp.outage_pwnl, pp.outage_pwl, pp.rate_fwnl):
        fn(p)
    for fn in (pp.rate_fwl, pp.rate_pwnl, pp.rate_pwl):
        fn(p, 200)
        fn(p, 2000)
elif workload == "validate":
    # the first draw's closed forms at 2000 nodes and one 65,536-sample MC chunk
    for fn in (pp.outage_fwnl, pp.outage_fwl, pp.outage_pwnl, pp.outage_pwl, pp.rate_fwnl):
        fn(p)
    for fn in (pp.rate_fwl, pp.rate_pwnl, pp.rate_pwl):
        fn(p, 2000)
    pp.estimate_outage(pp.Scenario.FWNL, p, 65536, seed)
else:
    # the first figure row: one closed form and its 100,000-sample MC estimate
    pp.outage_fwnl(p)
    pp.estimate_outage(pp.Scenario.FWNL, p, 100_000, seed)
