"""Acceptance suite: one test per headline criterion, each printing a
PASS/FAIL line (run with -s to see them on success).

The criteria pin the structural and quantitative claims the toolkit must
reproduce: the squared-envelope/autocorrelation identity, the metric-length
property of the step adaptation, analytic-gradient correctness (the
Jacobian and the reverse-mode gradient BFGS reads), objective
convexification, batch convergence and optimizer-comparison behavior, prior
moment fidelity, and end-to-end determinism.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from waveinv.bench import (
    draw_starts,
    gen_refs,
    load_config,
    make_objective,
    mean_reference,
    optimize_batch,
    surface_scan,
)
from waveinv.cli import main as cli_main
from waveinv.forward import ForwardConfig, MaterialParams, forward_response, phase_objective_terms
from waveinv.optim import lambda_k
from waveinv.signals import PhaseObjectiveConfig, Signal, _autocorr, envelope, transform_pipeline
from waveinv.stats import BUILTIN_PRIORS, MATERIALS, PRIOR_STATED_MOMENTS, gamma_inv_cdf


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_autocorrelation_identity():
    # One-sided DFT of the squared Hilbert envelope against 4x the
    # positive-frequency autocorrelation for 100 seeded band-limited random
    # signals at n = 1024.  In the raw-DFT convention used throughout, the
    # discrete identity carries the convolution-theorem factor 1/n:
    # rfft(envelope^2)[k] = (4/n) * E_k.
    start = time.time()
    n = 1024
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        coeffs = np.zeros(n // 2 + 1, dtype=complex)
        coeffs[1 : n // 2] = rng.standard_normal(n // 2 - 1) + 1j * rng.standard_normal(n // 2 - 1)
        s = Signal(np.fft.irfft(coeffs), dt=1.0 / n)
        lhs = np.fft.rfft(envelope(s).samples ** 2)[: n // 2]
        rhs = (4.0 / n) * _autocorr(np.fft.rfft(s.samples)[1:])[0]
        worst = max(worst, float(np.max(np.abs(lhs - rhs)) / np.max(np.abs(lhs))))
    elapsed = time.time() - start
    ok = worst <= 1e-9 and elapsed < 5.0
    _report("autocorrelation-identity", ok, f"max rel err {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-9
    assert elapsed < 5.0


def test_lambda_defining_property():
    # metric length of lambda * dx* equals the metric length of the
    # Gauss-Newton step for 1000 random SPD metrics
    start = time.time()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        theta = rng.uniform(0, 2 * np.pi)
        q = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        g = q @ np.diag(np.exp(rng.uniform(np.log(0.1), np.log(10.0), 2))) @ q.T
        dx = rng.standard_normal(2)
        lam = lambda_k(g, dx)
        # metric lengths sqrt(dx' G dx)
        lhs, rhs = (np.sqrt(v @ (g @ v)) for v in (lam * dx, np.linalg.solve(g, dx)))
        worst = max(worst, abs(lhs - rhs) / rhs)
    elapsed = time.time() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    _report("lambda-defining-property", ok, f"max rel err {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_gradient_correctness():
    # analytic residual Jacobian against central finite differences of the
    # full transform at 20 random prior draws per material
    start = time.time()
    cfg = ForwardConfig()
    obj = PhaseObjectiveConfig(bandwidth_hz=cfg.b, damping=1.0)
    rng = np.random.default_rng(11)
    worst = 0.0
    for mat in MATERIALS:
        prior = BUILTIN_PRIORS[mat]
        rho = prior.rho_si()
        ref = transform_pipeline(
            forward_response(
                MaterialParams(*prior.mean_params_si(), rho=rho), cfg
            ),
            obj,
        )

        def feature(m):
            return transform_pipeline(forward_response(m, cfg), obj).values

        for _ in range(20):
            e = 1.0e9 * gamma_inv_cdf(prior.marginals["E"], rng.uniform(0.01, 0.99))
            nu = gamma_inv_cdf(prior.marginals["nu"], rng.uniform(0.01, 0.99))
            m = MaterialParams(E=e, nu=nu, rho=rho)
            jac = -phase_objective_terms(m, cfg, obj, ref)[1]
            fd = []
            for i, val in enumerate((e, nu)):
                h = 1e-6 * abs(val)
                up = [e, nu]
                dn = [e, nu]
                up[i] += h
                dn[i] -= h
                df = (
                    feature(MaterialParams(up[0], up[1], rho))
                    - feature(MaterialParams(dn[0], dn[1], rho))
                ) / (2 * h)
                fd.append(-df)
            fd = np.column_stack(fd)
            worst = max(worst, float(np.max(np.abs(jac - fd)) / np.max(np.abs(fd))))
    elapsed = time.time() - start
    ok = worst <= 1e-4 and elapsed < 30.0
    _report("gradient-correctness", ok, f"max rel err {worst:.2e} over 60 points, {elapsed:.1f}s")
    assert worst <= 1e-4
    assert elapsed < 30.0


def test_fg_gradient_correctness():
    # the gradient BFGS reads (one reverse pass, no Jacobian) against central
    # finite differences of 0.5 ||r||^2 at 20 random prior draws per
    # material, in the rescaled units u = x / x0 that BFGS steps in
    start = time.time()
    rng = np.random.default_rng(11)
    worst = 0.0
    for mat in MATERIALS:
        cfg = load_config(None, {"material": mat})
        evaluate, fg, _, _ = make_objective(cfg, mean_reference(cfg))
        prior = BUILTIN_PRIORS[mat]

        def objective(x):
            r, _ = evaluate(x, False)
            return 0.5 * float(r @ r)

        for _ in range(20):
            e = 1.0e9 * gamma_inv_cdf(prior.marginals["E"], rng.uniform(0.01, 0.99))
            nu = gamma_inv_cdf(prior.marginals["nu"], rng.uniform(0.01, 0.99))
            x = np.array([e, nu])
            grad = fg(x)[1] * x
            fd = np.empty(2)
            for i in range(2):
                h = np.zeros(2)
                h[i] = 1e-6 * x[i]
                fd[i] = (objective(x + h) - objective(x - h)) / 2e-6
            worst = max(worst, float(np.max(np.abs(grad - fd)) / np.max(np.abs(fd))))
    elapsed = time.time() - start
    ok = worst <= 1e-4 and elapsed < 30.0
    _report("fg-gradient-correctness", ok, f"max rel err {worst:.2e} over 60 points, {elapsed:.1f}s")
    assert worst <= 1e-4
    assert elapsed < 30.0


def test_convexification():
    # 41 x 41 grid over +-2 sigma of the PEEK marginals around the
    # prior-mean ground truth: exactly one interior minimum for the phase
    # objective, several for the raw-signal objective
    start = time.time()
    base = load_config(None, {"material": "PEEK", "grid_n": 41, "grid_sigmas": 2.0})
    ref = mean_reference(base)
    phase = surface_scan(base, ref)
    signal = surface_scan(replace(base, objective="signal"), ref)
    elapsed = time.time() - start
    ok = phase.minima_count == 1 and signal.minima_count >= 2 and elapsed < 120.0
    _report(
        "convexification",
        ok,
        f"phase minima {phase.minima_count}, signal minima {signal.minima_count}, {elapsed:.1f}s",
    )
    assert phase.minima_count == 1
    assert signal.minima_count >= 2
    assert elapsed < 120.0


@pytest.fixture(scope="module")
def material_batches():
    """Shared batches: 20 LHS truths per material, +-1 sigma starts, seed 1;
    modified-LM at the 50-evaluation budget and BFGS on identical refs and
    starts at the 200-evaluation default."""
    batches = {}
    for mat in MATERIALS:
        cfg = load_config(None, {"material": mat, "n_refs": 20, "seed": 1, "eval_budget": 50})
        refs = gen_refs(cfg)
        lm = optimize_batch(cfg, refs)
        bfgs = optimize_batch(replace(cfg, optimizer="bfgs", eval_budget=200), refs)
        batches[mat] = (lm, bfgs)
    return batches


def test_convergence_success(material_batches):
    # modified-LM reaches relative_1 < 1e-6 within 50 evaluations in at
    # least 95% of the 60 runs
    start = time.time()
    total = 0
    wins = 0
    per_material = {}
    for mat, (lm, _) in material_batches.items():
        total += len(lm.runs)
        wins += sum(run.success for run in lm.runs)
        per_material[mat] = f"{sum(r.success for r in lm.runs)}/{len(lm.runs)}"
    rate = wins / total
    elapsed = time.time() - start
    ok = rate >= 0.95
    _report("convergence-success", ok, f"{wins}/{total} ({rate:.1%}) {per_material}")
    assert rate >= 0.95
    assert elapsed < 600.0


def test_optimizer_comparison(material_batches):
    # median evaluations-to-success: modified-LM <= BFGS per material, with
    # line-search evaluations counted for BFGS
    details = []
    ok = True
    for mat, (lm, bfgs) in material_batches.items():
        lm_wins = lm.evals_to_success()
        bfgs_wins = bfgs.evals_to_success()
        assert lm_wins, f"no successful modified-LM run for {mat}"
        assert bfgs_wins, f"no successful BFGS run for {mat}"
        lm_median = float(np.median(lm_wins))
        bfgs_median = float(np.median(bfgs_wins))
        details.append(f"{mat}: LM {lm_median:g} vs BFGS {bfgs_median:g}")
        ok = ok and lm_median <= bfgs_median
    _report("optimizer-comparison", ok, "; ".join(details))
    for mat, (lm, bfgs) in material_batches.items():
        assert float(np.median(lm.evals_to_success())) <= float(np.median(bfgs.evals_to_success()))


def test_prior_fidelity():
    # embedded priors reproduce the stated means and standard deviations to
    # four significant digits for all 12 (material, parameter) cells
    worst = 0.0
    for (mat, par), (mean, std) in PRIOR_STATED_MOMENTS.items():
        d = BUILTIN_PRIORS[mat].marginals[par]
        worst = max(worst, abs(d.mean - mean) / mean, abs(d.std - std) / std)
    ok = worst <= 5e-4
    _report("prior-fidelity", ok, f"worst rel moment err {worst:.2e} over 12 cells")
    assert worst <= 5e-4


def test_determinism(tmp_path):
    # two gen-refs -> optimize -> report pipelines with one seed produce
    # byte-identical CSV bodies
    start = time.time()
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text("n_refs = 3\nseed = 21\nlhs_restarts = 20\neval_budget = 40\n")
    blobs = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert cli_main(["--config", str(cfg_file), "--out", str(out), "gen-refs"]) == 0
        assert cli_main(["--config", str(cfg_file), "--out", str(out), "optimize"]) == 0
        assert cli_main(["--config", str(cfg_file), "--out", str(out), "report"]) == 0
        blob = {}
        for path in sorted(out.rglob("*")):
            if path.is_file():
                blob[str(path.relative_to(out))] = path.read_bytes()
        blobs.append(blob)
    same_files = blobs[0].keys() == blobs[1].keys()
    same_bytes = same_files and all(blobs[0][k] == blobs[1][k] for k in blobs[0])
    elapsed = time.time() - start
    _report("determinism", same_bytes, f"{len(blobs[0])} files byte-compared, {elapsed:.1f}s")
    assert same_files
    assert same_bytes
