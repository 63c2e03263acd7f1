"""End-to-end acceptance gate: ten numbered criteria.

Each test prints one ``ACCEPTANCE <k>: PASS|FAIL`` line.  Criteria that
pin published condition numbers carry the pinned values and tolerances
in-line.  Two cells are known red and intentionally not weakened:
criterion 3 at n = 32/64 and criterion 4.  Their cause is not settled,
but it is not the choice of projector: at p = 1, histopolation onto the
degree-0 factors and the L2 projection are both cell averages, so no
projector choice can move these cells.  The Jacobi gap lies in
lambda_min of B A: lambda_max is about 4, and the pinned kappas then
imply a smaller lambda_min than measured.
Criteria 3 and 4 print lambda_min and lambda_max next to kappa.
"""

import numpy as np
import pytest

from iga_asp.assembly import system_matrix, system_setup
from iga_asp.bench import (
    ExperimentSpec,
    l2_coefficient_error,
    manufactured_2d,
    quasi_interpolant_coefficients,
    run_experiment,
)
from iga_asp.derham import build_space, differential_matrix
from iga_asp.krylov import estimate_condition_number, pcg
from iga_asp.precond import AspPreconditioner, AspSetup
from iga_asp.transfer import build_p_curl, build_p_div


def verdict(num: int, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)


def test_criterion_01_exactness_identities():
    """Composites of consecutive difference matrices vanish with zero
    stored entries, across degrees, meshes, dimensions, and bc."""
    ok = True
    for p in (1, 2, 3):
        for n in (2, 4, 8):
            for bc in ("natural", "essential"):
                grad2 = build_space("grad", p, n, dim=2, bc=bc)
                curl2 = build_space("curl", p, n, dim=2, bc=bc)
                l22 = build_space("l2", p, n, dim=2, bc=bc)
                RG = (differential_matrix(curl2, l22)
                      @ differential_matrix(grad2, curl2))
                RG.eliminate_zeros()
                ok &= RG.nnz == 0
                grad3 = build_space("grad", p, n, dim=3, bc=bc)
                curl3 = build_space("curl", p, n, dim=3, bc=bc)
                div3 = build_space("div", p, n, dim=3, bc=bc)
                l23 = build_space("l2", p, n, dim=3, bc=bc)
                CG = (differential_matrix(curl3, div3)
                      @ differential_matrix(grad3, curl3))
                CG.eliminate_zeros()
                DC = (differential_matrix(div3, l23)
                      @ differential_matrix(curl3, div3))
                DC.eliminate_zeros()
                ok &= CG.nnz == 0 and DC.nnz == 0
    verdict(1, ok)
    assert ok


def unpreconditioned_kappa(n):
    A = system_matrix(system_setup("curl", 2, 1, n), 1e-4).A
    w = np.linalg.eigvalsh(A.toarray())
    return w[-1] / w[0]


def test_criterion_02_unpreconditioned_conditioning():
    k8 = unpreconditioned_kappa(8)
    k16 = unpreconditioned_kappa(16)
    ok = (abs(k8 - 1.37e7) <= 0.10 * 1.37e7
          and abs(k16 - 5.97e7) <= 0.10 * 5.97e7)
    verdict(2, ok, f"n=8: {k8:.3g}, n=16: {k16:.3g}")
    assert ok


def asp_kappa(n, smoother="jacobi", p=1, tau=1e-4):
    setup = system_setup("curl", 2, p, n)
    system = system_matrix(setup, tau)
    B = AspPreconditioner(AspSetup(setup), system, smoother)
    mode = "dense" if n <= 16 else "lanczos"
    return estimate_condition_number(system.A, B, mode=mode, k=250)


def spectrum(lam_min, lam_max, kappa):
    return f"{kappa:.3g} (lam_min={lam_min:#.3g}, lam_max={lam_max:#.3g})"


@pytest.fixture(scope="module")
def jacobi_spectra():
    return {n: asp_kappa(n) for n in (8, 16, 32, 64)}


def test_criterion_03_asp_mesh_robustness_jacobi(jacobi_spectra):
    targets = {8: 9.96, 16: 14.3, 32: 18.3, 64: 21.9}
    kappas = {n: jacobi_spectra[n][2] for n in targets}
    cells_ok = {n: abs(kappas[n] - t) <= 0.15 * t
                for n, t in targets.items()}
    bounded = all(k <= 30.0 for k in kappas.values())
    ok = all(cells_ok.values()) and bounded
    detail = ", ".join(f"n={n}: {spectrum(*jacobi_spectra[n])} vs "
                       f"{targets[n]}" for n in targets)
    verdict(3, ok, detail)
    assert bounded, "kappa <= 30 robustness property violated"
    assert ok, (
        "pinned-table mismatch at n=32/64; the gap is in lambda_min: "
        "with lambda_max ~ 4 the pinned kappas imply lambda_min ~ "
        "0.22/0.18, below the measured values; cause not settled, and "
        "not the projector (p = 1 histopolation equals the L2 "
        "projection)")


def test_criterion_04_asp_gauss_seidel():
    lam_min, lam_max, kappa = asp_kappa(8, smoother="gs")
    ok = abs(kappa - 4.52) <= 0.15 * 4.52
    verdict(4, ok, f"kappa={spectrum(lam_min, lam_max, kappa)} vs 4.52")
    assert ok, (
        "pinned-table mismatch; measured kappa is below the published "
        "value; cause not settled, and not the projector (p = 1 "
        "histopolation equals the L2 projection)")


def iterations(problem, dim, p, n, tau, precond, smoother,
               variant="perturbed", curl_smoother="diag", nu2_rule="psq",
               max_iter=3000):
    spec = ExperimentSpec(problem, dim, (p,), (n,), (tau,), precond=precond,
                          smoother=smoother, curl_smoother=curl_smoother,
                          nu2_rule=nu2_rule, variant=variant,
                          max_iter=max_iter,
                          report=("iters", "errors"))
    (row,) = run_experiment(spec)
    return row


def test_criterion_05_cg_iteration_counts():
    got = {}
    for n in (8, 64):
        for sm in ("jacobi", "gs"):
            got[(n, sm)] = iterations("curl", 2, 1, n, 1e-4, "asp", sm)
    targets = {(8, "jacobi"): 13, (8, "gs"): 10,
               (64, "jacobi"): 23, (64, "gs"): 16}
    ok = all(got[k]["converged"] and abs(got[k]["iters"] - t) <= 2
             for k, t in targets.items())
    detail = ", ".join(f"n={n}/{sm}: {got[(n, sm)]['iters']}"
                       for n, sm in targets)
    verdict(5, ok, detail)
    assert ok


def test_criterion_06_misleading_convergence():
    tau = 1e-7
    unprec = iterations("curl", 2, 3, 32, tau, "none", "jacobi",
                        variant="pure")
    asp = iterations("curl", 2, 3, 32, tau, "asp", "jacobi", variant="pure")
    ok = (unprec["converged"] and unprec["l2_err"] >= 1e-1
          and asp["converged"] and asp["l2_err"] <= 1e-4
          and asp["iters"] <= 25 and abs(asp["iters"] - 20) <= 5)
    verdict(6, ok, f"unprec l2={unprec['l2_err']:.2e}, "
                   f"asp l2={asp['l2_err']:.2e} in {asp['iters']} iters")
    assert ok


def test_criterion_07_3d_glt_curl():
    got = {}
    for sm in ("jacobi", "gs"):
        got[sm] = iterations("curl", 3, 1, 8, 1e-4, "asp-glt", sm,
                             nu2_rule="pcube", max_iter=200)
    ok = (all(r["converged"] for r in got.values())
          and abs(got["jacobi"]["iters"] - 4) <= 2
          and abs(got["gs"]["iters"] - 3) <= 2)
    verdict(7, ok, f"J: {got['jacobi']['iters']}, GS: {got['gs']['iters']}")
    assert ok


def test_criterion_08_3d_div_smoother_swap():
    got = {}
    for p in (2, 3):
        for cs in ("diag", "sgs"):
            got[(p, cs)] = iterations("div", 3, p, 8, 1e-4, "asp-glt",
                                      "jacobi", curl_smoother=cs,
                                      nu2_rule="pcube")["iters"]
    ok = (abs(got[(3, "diag")] - 16) <= 3
          and abs(got[(3, "sgs")] - 4) <= 3
          and all(got[(p, "sgs")] <= got[(p, "diag")] for p in (2, 3)))
    verdict(8, ok, f"p=3 diag: {got[(3, 'diag')]}, sgs: {got[(3, 'sgs')]}; "
                   f"p=2 diag: {got[(2, 'diag')]}, sgs: {got[(2, 'sgs')]}")
    assert ok


def test_criterion_09_p_robustness():
    glt = []
    plain = []
    for p in range(1, 7):
        glt.append(iterations("curl", 2, p, 64, 1e-4, "asp-glt", "jacobi",
                              nu2_rule="psq", max_iter=200)["iters"])
        plain.append(iterations("curl", 2, p, 64, 1e-4, "asp",
                                "jacobi")["iters"])
    ratio = max(plain) / min(plain)
    ok = all(k <= 10 for k in glt) and ratio >= 1.3
    verdict(9, ok, f"glt={glt}, plain={plain}, ratio={ratio:.2f}")
    assert ok


def test_criterion_10_transfer_correctness():
    ok = True
    for p in (1, 2, 3, 4):
        # constants preservation (natural bc)
        xh = build_space("vector", p, 4, dim=2)
        curl = build_space("curl", p, 4, dim=2)
        div = build_space("div", p, 4, dim=2)
        ones = quasi_interpolant_coefficients(
            xh, [lambda x, y: np.ones_like(x)] * 2)
        c_curl = quasi_interpolant_coefficients(
            curl, [lambda x, y: np.ones_like(x)] * 2)
        c_div = quasi_interpolant_coefficients(
            div, [lambda x, y: np.ones_like(x)] * 2)
        ok &= np.allclose(build_p_curl(xh, curl) @ ones, c_curl, atol=1e-12)
        ok &= np.allclose(build_p_div(xh, div) @ ones, c_div, atol=1e-12)
        # polynomial commuting: scalar curl after transfer equals the
        # projection of the analytic curl
        l2 = build_space("l2", p, 4, dim=2)
        phi = [lambda x, y: x**p, lambda x, y: x * y ** (p - 1)]
        curl_phi = [lambda x, y: np.zeros_like(x) - y ** (p - 1)]
        c_xh = quasi_interpolant_coefficients(xh, phi)
        lhs = differential_matrix(curl, l2) @ (build_p_curl(xh, curl) @ c_xh)
        rhs = quasi_interpolant_coefficients(l2, curl_phi)
        ok &= np.allclose(lhs, rhs, atol=1e-9)
    verdict(10, ok)
    assert ok
