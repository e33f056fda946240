"""Reading the theory diagnostics for a selected subsample.

For each method this prints the condition number of the subsample
information matrix and the worst-case MSE bound at the config's noise level
(sigma2) and a chosen misspecification level (alpha). For the design-based
method it also decomposes the selection into design points plus a
perturbation (the design-to-sample gap) and reports whether the smallest
design singular value dominates the gap's largest one, which is what makes
the perturbation bounds usable, along with their slack.

The same report is available from the CLI:

  lowcon diagnose --config cfg.json --alpha 1.0

Run:  python demos/06_diagnostics.py
"""

from lowcon import ExperimentConfig, diagnose

cfg = ExperimentConfig(
    mode="simulate", dist="D1", misspec="H2", n=4000, p=3, r_list=(20,),
    sigma2=1.0, replicates=1, seed=5,
    methods=("UNIF", "BLEV", "IBOSS", "LOWCON"),
)

print(f"One seeded draw: dist={cfg.dist}, n={cfg.n}, p={cfg.p}, r={cfg.r_list[0]}")
print()
for e in diagnose(cfg, alpha=1.0):
    print(f"{e.method:7s} kappa(X*'X*) = {e.kappa_sub:10.3f}   "
          f"worst-case MSE bound = {e.worst_case_bound:8.3f}")
    if e.method == "LOWCON":
        print(f"        design decomposition: sp(L) = {e.sp_design:.3f}, "
              f"s1(D) = {e.s1_perturbation:.3f} "
              f"({'assumption holds' if e.assumption_holds else 'assumption violated'})")
        if e.assumption_holds:
            print(f"        bound slack: kappa {e.kappa_bound_slack:.3f}, "
                  f"trace-inverse {e.trace_bound_slack:.3f}")
