"""Acceptance suite: one test per criterion, each printing a pass line
with its runtime.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""
import itertools
import json
import math
import time

import numpy as np
import pytest

import fracdim as fd
from fracdim import io
from fracdim.cli import main as cli_main
from oracles import exact_cover_oracle, exact_pack_oracle, random_metric_cloud

TOL = 1e-12


def report(num, limit, started, message):
    elapsed = time.time() - started
    assert elapsed < limit, f"criterion {num} overran: {elapsed:.1f}s >= {limit}s"
    print(f"PASS criterion {num}: {message} ({elapsed:.1f}s < {limit}s)")


# ----------------------------------------------------------------- shared

@pytest.fixture(scope="module")
def stability_params():
    return [(6, 16), (4, 2), (2, 2)]


@pytest.fixture(scope="module")
def certify_artifacts(tmp_path_factory):
    """Criterion 4's cmd_certify run: cloud file, stdout, certificate file."""
    tmp = tmp_path_factory.mktemp("accept4")
    cloud_path = tmp / "ipp12.json"
    cert_path = tmp / "cert.json"
    io.write_cloud(fd.interval_plus_point_cloud(12), cloud_path)
    code = cli_main(["certify", str(cloud_path), "--k", "6", "--l", "16",
                     "--depth", "2", "--strong", "--out", str(cert_path)])
    return {"exit": code, "cloud_path": cloud_path, "cert_path": cert_path}


@pytest.fixture(scope="module")
def stability_results(stability_params):
    return _compute_stability(stability_params)


def _compute_stability(params):
    grid12 = fd.dyadic_interval_cloud(12)
    single = fd.PointCloud([[0.0]])
    cantor8 = fd.cantor_cloud(8)
    two = fd.PointCloud([[0.0], [1.0]])
    pairs = [
        ("grid+point", grid12, single, 2.0),
        ("cantor+two", cantor8, two, 10.0),
    ]
    out = []
    for name, a, b, offset in pairs:
        union = fd.union_cloud(a, b, offset=offset)
        res_a = fd.mod_lower_dim_bound(a, params, depth=2, budget=fd.DEFAULT_BUDGET)
        res_b = fd.mod_lower_dim_bound(b, params, depth=2, budget=fd.DEFAULT_BUDGET)
        res_u = fd.mod_lower_dim_bound(union, params, depth=2, budget=fd.DEFAULT_BUDGET)
        out.append({"name": name, "a": res_a, "b": res_b, "union": res_u,
                    "clouds": (a, b, union)})
    return out


def _cantor_report():
    window = fd.ScaleWindow(3.0 ** -5, 3.0 ** -1, ratio=3.0, min_gap=3.0)
    return fd.lower_dim_estimate(fd.cantor_cloud(7), window, mode="exact")


def _embedding_scan():
    rows = []
    for b in range(5):
        tree = fd.FiniteTree.single_branch(b)
        cloud = fd.embed_tree(tree)
        depth, exhausted = fd.max_regular_depth(cloud, 2, 2, cap=b + 2)
        rows.append({"branch": b, "points": cloud.n, "depth": depth,
                     "exhausted": exhausted})
    bushy = fd.FiniteTree.full_tree(2, 3)
    bc = fd.embed_tree(bushy)
    depth, exhausted = fd.max_regular_depth(bc, 2, 2, cap=4)
    rows.append({"branch": "bushy", "points": bc.n, "depth": depth,
                 "exhausted": exhausted})
    return rows


# -------------------------------------------------------------- criteria

def test_criterion_1_oracle_equivalence():
    started = time.time()
    rng = np.random.default_rng(2024)
    instances = 0
    for _ in range(200):
        n = int(rng.integers(4, 13))
        dmat = random_metric_cloud(rng, n, int(rng.integers(1, 4)))
        cloud = fd.PointCloud.from_matrix(dmat)
        sub = cloud.all_indices()
        positive = dmat[dmat > 0]
        for q in (0.25, 0.5, 0.75):
            r = float(np.quantile(positive, q))
            exact = fd.covering_number(sub, r, mode="exact")
            assert exact.count == exact_cover_oracle(dmat, r)
            assert fd.validate_cover(sub, exact, r)
            greedy = fd.covering_number(sub, r, mode="greedy")
            assert greedy.count >= exact.count
            pack = fd.packing_number(sub, r * (1 + 1e-9) + 4 * TOL, mode="exact")
            assert pack.count <= exact.count  # sandwich
            assert pack.count == exact_pack_oracle(dmat, r * (1 + 1e-9) + 4 * TOL)
            instances += 1
    report(1, 60, started,
           f"exact covering matches subset-DP oracle on {instances} instances; "
           "greedy >= exact; packing sandwich holds")


def test_criterion_2_verifier_vs_formula():
    started = time.time()
    for depth in range(1, 7):
        cloud, fam = fd.polarized_natural_family(depth)
        assert fd.verify_regular(cloud, fam).ok
        strong = fd.RegularFamily(2, 2, depth, True, dict(fam.assign))
        rep = fd.verify_regular(cloud, strong)
        assert not rep.ok
        assert any(v.kind == "strong" and v.s == () for v in rep.violations)
        gap = float(np.diff(cloud.coords[:, 0]).min())
        assert gap >= 2.0 ** (-2 * depth - 1)
    report(2, 5, started,
           "polarized labelings verify plainly, fail strongly at the root, "
           "and stay discrete for depths 1..6")


def test_criterion_3_cantor_window():
    started = time.time()
    rep = _cantor_report()
    target = math.log(2) / math.log(3)
    assert 0.58 <= rep.alpha_hat <= 0.64
    assert rep.alpha_hat == pytest.approx(target, abs=1e-6)
    assert all(row[3] == 2 ** round(math.log2(row[3])) for row in rep.table)
    report(3, 120, started,
           f"cantor(7) triadic window alpha_hat={rep.alpha_hat:.4f} "
           f"(target log2/log3={target:.4f})")


def test_criterion_4_dim_gap(certify_artifacts):
    started = time.time()
    cloud = fd.interval_plus_point_cloud(12)
    window = fd.ScaleWindow(2.0 ** -6, 2.0 ** -1)
    rep = fd.lower_dim_estimate(cloud, window, mode="exact")
    assert rep.alpha_hat <= 0.05
    assert certify_artifacts["exit"] == 0
    fam = fd.RegularFamily.from_dict(io.read_json(certify_artifacts["cert_path"]))
    assert fd.verify_regular(cloud, fam).ok
    assert fd.dimension_bound(fam.k, fam.l) == 2 / 3  # exact, not approximate
    report(4, 120, started,
           f"interval-plus-point(12): alpha_hat={rep.alpha_hat} <= 0.05 while "
           "cmd_certify yields bound exactly 2/3")


def test_criterion_5_stability(stability_results):
    started = time.time()
    for row in stability_results:
        best_components = max(row["a"].bound, row["b"].bound)
        assert row["union"].bound == best_components  # exact equality
        assert not row["union"].exhausted
    bounds = [(r["name"], r["union"].bound) for r in stability_results]
    report(5, 180, started,
           f"union certificate bounds equal component maxima exactly: {bounds}")


def test_criterion_6_parameter_law():
    started = time.time()
    assert fd.choose_parameters(1.0, 1.0, 1 / 3) == (7, 8)
    assert fd.choose_parameters(1.0, 0.9, 0.5) == (10, 42)
    assert fd.choose_parameters(16.0, 1.0, 0.5) == (5, 32)
    rng = np.random.default_rng(77)
    for _ in range(50):
        alpha = float(rng.uniform(0.0, 1.5))
        beta = alpha + float(rng.uniform(0.05, 1.0))
        C = float(rng.uniform(0.05, 30.0))
        k, l = fd.choose_parameters(C, beta, alpha)
        assert k >= 5
        assert l == math.floor(C * 2.0 ** ((k - 4) * beta)) and l >= 2
        assert math.log2(l) / k > alpha
        for smaller in range(5, k):
            l2 = math.floor(C * 2.0 ** ((smaller - 4) * beta))
            assert l2 < 2 or math.log2(l2) / smaller <= alpha
    report(6, 5, started,
           "choose_parameters matches hand enumeration and the minimality law "
           "on 50 random inputs")


def test_criterion_7_scaling_inequality(certify_artifacts, stability_results):
    started = time.time()
    cloud4 = fd.interval_plus_point_cloud(12)
    fam4 = fd.RegularFamily.from_dict(io.read_json(certify_artifacts["cert_path"]))
    checked = 0
    assert fd.certificate_scaling_check(cloud4, fam4, exact_cutoff=64)
    checked += 1
    for row in stability_results:
        clouds = row["clouds"]
        for res, cloud in zip((row["a"], row["b"], row["union"]),
                              (clouds[0], clouds[1], clouds[2])):
            for (_, _, search) in res.outcomes:
                if search.family is not None:
                    assert fd.certificate_scaling_check(cloud, search.family,
                                                        exact_cutoff=64)
                    checked += 1
    report(7, 60, started,
           f"covering-count chain verified on all {checked} certificates "
           "from criteria 4 and 5")


def test_criterion_8_embedding_suite():
    started = time.time()
    for b in range(5):
        tree = fd.FiniteTree.single_branch(b)
        cloud = fd.embed_tree(tree)
        assert cloud.n == sum(2 ** n for n in range(b + 1))
        if b >= 1:
            fam = fd.branch_family(tree, (0,) * b, b, cloud=cloud)
            assert fd.verify_regular(cloud, fam).ok
        depth, exhausted = fd.max_regular_depth(cloud, 2, 2, cap=b + 2)
        assert depth == b and exhausted is False
    bushy = fd.FiniteTree.full_tree(2, 3)
    bc = fd.embed_tree(bushy)
    assert bc.n == 1 + 3 * 2 + 9 * 4
    depth, exhausted = fd.max_regular_depth(bc, 2, 2, cap=4)
    assert depth == 2 and exhausted is False
    # exhaustive separation-law scan over every suite tree
    scanned = 0
    for tree in [fd.FiniteTree.single_branch(b) for b in range(5)] + [bushy]:
        cloud = fd.embed_tree(tree)
        owners = [tuple(int(p) for p in s.split(".")) if s else ()
                  for s in cloud.meta["point_node"]]
        for i, j in itertools.combinations(range(cloud.n), 2):
            u, v = owners[i], owners[j]
            k = next((t for t in range(min(len(u), len(v))) if u[t] != v[t]), None)
            if k is not None:
                assert cloud.distance(i, j) >= 2.0 ** (-2 * k) - TOL
                scanned += 1
    report(8, 120, started,
           f"embedding sizes, branch certificates, depth scans, and "
           f"{scanned} separated pairs all check out")


def test_criterion_9_hausdorff_closedness():
    started = time.time()
    base = fd.dyadic_interval_cloud(12)
    res = fd.search_regular(base, 6, 16, 2, strong=True)
    fam = res.family
    assert fam is not None
    distances = []
    for i in range(5, 21):
        shifted = fd.PointCloud(base.coords + 2.0 ** -i)
        d = fd.hausdorff_distance(base, shifted)
        assert d == pytest.approx(2.0 ** -i, abs=TOL)
        distances.append(d)
        assert fd.verify_regular(shifted, fam).ok
    assert distances == sorted(distances, reverse=True)  # K_i -> K
    assert fd.verify_regular(base, fam).ok  # pointwise-limit family
    report(9, 30, started,
           "perturbed families verify along the convergent sequence and in the limit")


def test_criterion_10_determinism(certify_artifacts, stability_results,
                                  stability_params, tmp_path):
    started = time.time()

    def snapshot():
        parts = {
            "criterion3": _cantor_report().to_dict(),
            "criterion4_estimate": fd.lower_dim_estimate(
                fd.interval_plus_point_cloud(12),
                fd.ScaleWindow(2.0 ** -6, 2.0 ** -1), mode="exact").to_dict(),
            "criterion5": [
                {"name": row["name"],
                 "a": row["a"].bound, "b": row["b"].bound,
                 "union": row["union"].bound,
                 "union_family": None if row["union"].family is None
                 else row["union"].family.to_dict()}
                for row in _compute_stability(stability_params)],
            "criterion8": _embedding_scan(),
        }
        return io.dumps_canonical(parts, indent=2).encode()

    first = snapshot()
    second = snapshot()
    assert first == second
    # the cmd_certify artifact also replays byte-identically
    cert_path2 = tmp_path / "cert_repeat.json"
    code = cli_main(["certify", str(certify_artifacts["cloud_path"]),
                     "--k", "6", "--l", "16", "--depth", "2", "--strong",
                     "--out", str(cert_path2)])
    assert code == 0
    assert cert_path2.read_bytes() == certify_artifacts["cert_path"].read_bytes()
    report(10, 600, started,
           f"criteria 3-5 and 8 replay byte-identically ({len(first)} bytes)")
