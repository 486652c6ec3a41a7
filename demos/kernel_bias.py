"""Compare zero-lag and lag-window variance estimators head to head.

With a dominant common factor in the errors, the cross-sectional
aggregates already carry the variance, and the serially correlated
idiosyncratic part is an order smaller. Adding temporal lags to the
variance estimator then buys nothing: the lag terms estimate a
vanishing quantity and only add noise and downweighting bias. The demo
measures both estimators' relative root mean squared error around the
exact finite-sample variance of the slope.

Run: python3 demos/kernel_bias.py
"""

import numpy as np

from panelcsd import (CovMatrix, DgpSpec, EstimatorKind, Factor,
                      TimeDependenceSpec, cov_cross_section, cov_kernel,
                      fit, gen_panel, true_variance_mixed)


def main():
    n, t, reps = 50, 200, 500
    spec = DgpSpec(
        cross_section=Factor(n_factors=1, strength=1.0),
        beta_true=(1.0,),
        time_memory=TimeDependenceSpec.idio_ma((1.0, 1.0)),
    )
    design_panel, truth = gen_panel(spec, n, t, np.random.SeedSequence((9, 0)))
    design = (design_panel.x, truth["mu"])
    v_true = true_variance_mixed(
        design_panel, EstimatorKind.FIXED_EFFECT, spec.time_memory,
        loadings=truth["loadings"], sigma=CovMatrix(truth["sigma"]))[0, 0]
    print(f"factor errors with MA(1) idiosyncratic memory, "
          f"n={n}, t={t}, {reps} replications")
    print(f"exact slope variance for this design: {v_true:.3e}")
    print()

    v_cs = np.empty(reps)
    v_k = np.empty(reps)
    trunc = None
    for r in range(reps):
        panel, _ = gen_panel(spec, n, t, np.random.SeedSequence((9, 1, r)),
                             design=design)
        res = fit(panel, EstimatorKind.FIXED_EFFECT)
        v_cs[r] = cov_cross_section(res).matrix[0, 0]
        rk = cov_kernel(res, kernel="bartlett", trunc="auto")
        v_k[r] = rk.matrix[0, 0]
        trunc = rk.trunc_lag

    for label, draws in (("zero-lag", v_cs),
                         (f"bartlett, {trunc} lags", v_k)):
        bias = draws.mean() / v_true - 1.0
        rmse = np.sqrt(np.mean((draws - v_true) ** 2)) / v_true
        print(f"  {label:<18} relative bias {bias:+.3f}   "
              f"relative rmse {rmse:.3f}")
    print()
    print("the added lag terms target a component that is an order smaller")
    print("than the same-period one, so they contribute mostly sampling")
    print("noise and the wider estimator loses on rmse")


if __name__ == "__main__":
    main()
