"""Reproduce the estimator convergence rates by simulation.

Under weak dependence the slope error shrinks like 1/sqrt(N*T); under
strong dependence the cross-section stops helping and the rate is
1/sqrt(T) alone. Both show up as a -0.5 log-log slope against the right
axis. The single-period experiment at the end shows the sharpest form:
with one period and a common shock, the error does not shrink in N at
all unless the regressors are exactly centered within the period.

run_mc's workers run this script only when a task needs a name defined
in it, and this demo's tasks need none; the main guard keeps an import
of the script from running the simulations.

Run: python3 demos/variance_rates.py
"""

from panelcsd import (CovConfig, DgpSpec, Diagonal, Equicorr, McConfig,
                      run_mc, t1_cross_section_experiment)


def show(title, report):
    print(title)
    print(f"  {'n':>4} {'t':>4} {'rmse':>8}")
    for cell in report.cells:
        print(f"  {cell['n']:>4} {cell['t']:>4} {cell['rmse'][0]:8.4f}")
    rate = report.rate
    print(f"  slope vs {rate['axis']}: {rate['slope']:+.3f} "
          f"(95% ci {rate['ci95'][0]:+.3f} .. {rate['ci95'][1]:+.3f})")
    print()


def main():
    reps = 500
    strong = run_mc(McConfig(
        dgp=DgpSpec(cross_section=Equicorr(a=1.0, b=0.5), beta_true=(1.0,)),
        grid=((50, 50), (50, 100), (50, 200), (50, 400)),
        reps=reps, cov=CovConfig(method="cs"), master_seed=1,
        rate_axis="T", true_variance=False))
    show("strong dependence, N fixed at 50, T growing:", strong)

    weak = run_mc(McConfig(
        dgp=DgpSpec(cross_section=Diagonal(), beta_true=(1.0,)),
        grid=((25, 50), (35, 100), (50, 200), (71, 400)),
        reps=reps, cov=CovConfig(method="cs"), master_seed=2,
        rate_axis="NT", true_variance=False))
    show("weak dependence, N and T growing together:", weak)

    print("single period, equicorrelated errors, slope-only regression:")
    for centered in (False, True):
        out = t1_cross_section_experiment(reps=1000, centered=centered)
        ns = sorted(out["rmse_by_n"])
        label = "centered x" if centered else "raw x     "
        rmses = "  ".join(f"n={n}: {out['rmse_by_n'][n]:.4f}" for n in ns)
        print(f"  {label} {rmses}   large/small ratio "
              f"{out['ratio']:.3f}")


if __name__ == "__main__":
    main()
