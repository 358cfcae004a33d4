"""Structure penalties: closed-form minimizers, projections, builders.

The closed forms are checked two ways: against frozen hand-derived
examples, and against large batches of random feasible probes (the
returned matrix must beat every probe).
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from smtl.errors import (
    AsymmetricAdjacency,
    BadPenaltyParam,
    BadRank,
    NotPd,
    NotStrictlyPd,
)
from smtl.kernels import KernelSpec
from smtl.linalg import PsdMatrix
from smtl.penalties import (
    PenaltySpec,
    _cluster_structure,
    check_tasks,
    penalty_value,
    project_capped_simplex,
    project_structure,
    structure_coding,
    structure_graph,
    structure_mean_variance,
    structure_metric,
    unsupervised_min,
)
from smtl.solver import fit
from smtl.synth import SyntheticSpec, synth_generate


def random_pd(rng, n, jitter=0.05):
    g = rng.standard_normal((n, n))
    return g @ g.T + jitter * np.eye(n)


def trace_objective(a_mat, b_mat, lam):
    return lam * np.trace(np.linalg.solve(a_mat, b_mat))


class TestClosedForms:
    def test_schatten_p1_diagonal(self):
        # eigenvalue map is sqrt(lam * sigma / mu)
        spec = PenaltySpec.schatten(p=1.0, mu=1.0)
        a = unsupervised_min(spec, PsdMatrix(np.diag([4.0, 1.0])), lam=1.0)
        assert_allclose(a.data, np.diag([2.0, 1.0]), atol=1e-12)

    def test_trace_one_diagonal(self):
        spec = PenaltySpec.trace_one()
        a = unsupervised_min(spec, PsdMatrix(np.diag([4.0, 1.0])), lam=1.0)
        assert_allclose(a.data, np.diag([2 / 3, 1 / 3]), atol=1e-12)
        assert abs(np.trace(a.data) - 1.0) < 1e-12

    def test_fixed_ignores_b(self):
        a0 = PsdMatrix(np.diag([0.5, 2.0]))
        spec = PenaltySpec.fixed(a0.data)
        a = unsupervised_min(spec, PsdMatrix(random_pd(np.random.default_rng(0), 2)), lam=3.0)
        assert_allclose(a.data, a0.data)

    def test_minimizer_commutes_with_b(self):
        """Spectral penalties: A commutes with B. Cluster: A^-1 does once
        its fixed ones-vector part (eps_m - eps_b) U is taken out."""
        rng = np.random.default_rng(1)
        for spec in (PenaltySpec.schatten(1.0, 0.7),
                     PenaltySpec.schatten(2.0, 1.3),
                     PenaltySpec.trace_one(),
                     PenaltySpec.cluster(2, 0.5, 1.0, 2.0),
                     PenaltySpec.cluster(2, 1.0, 1.5, 1.0),
                     PenaltySpec.cluster(3, 1.3, 1.0, 1.0)):
            b = PsdMatrix(random_pd(rng, 5))
            a = unsupervised_min(spec, b, lam=0.9)
            x = a.data
            if spec.kind == "cluster":
                x = (np.linalg.inv(a.data)
                     - (spec.eps_m - spec.eps_b) * np.full((5, 5), 0.2))
            comm = x @ b.data - b.data @ x
            assert np.max(np.abs(comm)) <= 1e-8

    def test_requires_strictly_pd_b(self):
        with pytest.raises(NotStrictlyPd):
            unsupervised_min(PenaltySpec.schatten(1.0, 1.0),
                             PsdMatrix(np.diag([1.0, 0.0])), lam=1.0)

    def test_rejects_bad_lam(self):
        with pytest.raises(BadPenaltyParam):
            unsupervised_min(PenaltySpec.schatten(1.0, 1.0),
                             PsdMatrix(np.eye(2)), lam=0.0)


class TestProbeMinimality:
    """The closed form must beat random feasible probes."""

    def probe_beats(self, spec, lam, n_probes=10000, dim=3, seed=2):
        rng = np.random.default_rng(seed)
        b = PsdMatrix(random_pd(rng, dim))
        a_star = unsupervised_min(spec, b, lam=lam)
        best = trace_objective(a_star.data, b.data, lam) + penalty_value(spec, a_star)

        # vectorized batch of random PD probes
        g = rng.standard_normal((n_probes, dim, dim))
        probes = g @ np.swapaxes(g, 1, 2) + 1e-3 * np.eye(dim)
        if spec.kind == "trace_one":
            probes /= np.trace(probes, axis1=1, axis2=2)[:, None, None]
        vals = lam * np.trace(np.linalg.solve(probes, b.data), axis1=1, axis2=2)
        if spec.kind == "schatten":
            eigs = np.linalg.eigvalsh(probes)
            vals = vals + spec.mu * np.sum(eigs ** spec.p, axis=1)
        margin = np.min(vals) - best
        assert margin >= -1e-8, "probe beat closed form by %.3e" % -margin

    def test_schatten_p1(self):
        self.probe_beats(PenaltySpec.schatten(1.0, 1.0), lam=0.8)

    def test_schatten_p2(self):
        self.probe_beats(PenaltySpec.schatten(2.0, 0.5), lam=1.2)

    def test_schatten_p3(self):
        self.probe_beats(PenaltySpec.schatten(3.0, 2.0), lam=0.6)

    def test_trace_one(self):
        self.probe_beats(PenaltySpec.trace_one(), lam=1.0)


class TestCluster:
    def test_extreme_point_selection(self):
        """eps_b > eps_w pulls the assignment onto B's small eigenvalues."""
        spec = PenaltySpec.cluster(r=1, eps_m=1.0, eps_b=1.5, eps_w=1.0)
        b = PsdMatrix(np.diag([5.0, 1.0]))
        a = unsupervised_min(spec, b, lam=1.0)
        # M = e2 e2' (smallest eigenvalue direction); feasibility must hold
        assert penalty_value(spec, a) == 0.0
        # the returned A must beat the competing extreme point
        m_alt = np.diag([1.0, 0.0])
        u = np.full((2, 2), 0.5)
        inv_alt = 1.0 * u + 1.5 * (m_alt - u) + 1.0 * (np.eye(2) - m_alt)
        a_alt = np.linalg.inv(inv_alt)
        val = trace_objective(a.data, b.data, 1.0)
        val_alt = trace_objective(a_alt, b.data, 1.0)
        assert val <= val_alt + 1e-10

    def test_largest_selected_when_between_weight_small(self):
        spec = PenaltySpec.cluster(r=1, eps_m=1.0, eps_b=0.5, eps_w=2.0)
        b = PsdMatrix(np.diag([5.0, 1.0]))
        a = unsupervised_min(spec, b, lam=1.0)
        assert penalty_value(spec, a) == 0.0
        # grid probe over all rank-1 assignments M = q q', q unit
        best = trace_objective(a.data, b.data, 1.0)
        u = np.full((2, 2), 0.5)
        for theta in np.linspace(0, np.pi, 721):
            q = np.array([np.cos(theta), np.sin(theta)])
            m = np.outer(q, q)
            inv = 1.0 * u + 0.5 * (m - u) + 2.0 * (np.eye(2) - m)
            w = np.linalg.eigvalsh(inv)
            if w.min() <= 1e-9:
                continue
            val = trace_objective(np.linalg.inv(inv), b.data, 1.0)
            assert best <= val + 1e-9

    def test_param_validation(self):
        for mu in (0.0, -1.0):
            with pytest.raises(BadPenaltyParam):
                PenaltySpec.schatten(1.0, mu)
        with pytest.raises(BadRank):
            PenaltySpec.cluster(r=0, eps_m=1.0, eps_b=1.0, eps_w=1.0)
        with pytest.raises(BadPenaltyParam):
            PenaltySpec.cluster(r=1, eps_m=-1.0, eps_b=1.0, eps_w=1.0)
        with pytest.raises(BadRank):
            unsupervised_min(PenaltySpec.cluster(r=5, eps_m=1, eps_b=1.2, eps_w=1),
                             PsdMatrix(np.eye(2)), lam=1.0)

    @pytest.mark.parametrize("eps", [(1.0, 2.0, 0.5), (1.0, 1.5, 0.5),
                                     (0.5, 3.0, 0.5)])
    def test_weights_that_can_be_singular_are_rejected(self, eps):
        """eps_b >= eps_m + eps_w (the boundary included) is rejected for
        r < T, naming the three weights: some rank-r projector M then has a
        singular or indefinite A^-1(M)."""
        eps_m, eps_b, eps_w = eps
        t, r = 4, 2
        spec = PenaltySpec.cluster(r, *eps)
        with pytest.raises(BadPenaltyParam) as err:
            check_tasks(spec, t)
        for name, value in zip(("eps_m", "eps_b", "eps_w"), eps):
            assert "%s=%g" % (name, value) in str(err.value)
        q = np.linalg.qr(np.hstack([np.ones((t, 1)),
                                    np.eye(t)[:, :r]]))[0][:, 1:]
        m = q @ q.T  # a projector orthogonal to the ones vector
        a_inv = ((eps_b - eps_w) * m + (eps_m - eps_b) * np.full((t, t), 1 / t)
                 + eps_w * np.eye(t))
        assert np.linalg.eigvalsh(a_inv)[0] <= 1e-12
        check_tasks(spec, r)  # r = T: M = I, which is always PD

    @pytest.mark.parametrize("eps", [(1.0, 1.5, 1.0), (1.0, 0.5, 2.0),
                                     (1.0, 1.2, 1.0), (1.0, 1.5, 0.8),
                                     (1.0, 0.6, 2.0), (1.3, 1.0, 1.0),
                                     (0.25, 0.25, 0.25), (0.5, 1.0, 2.0)])
    def test_weights_in_use_stay_accepted(self, eps):
        # the triples of the tests and of the benchmark's cluster fit
        for t in (2, 3, 40, 300):
            check_tasks(PenaltySpec.cluster(1, *eps), t)

    @pytest.mark.parametrize("eps", [(1.0, 1.0, 1e-13), (1e-12, 1.0, 1.0),
                                     (1.0, 2.0 - 1e-10, 1.0)])
    def test_ill_conditioned_structure_is_feasible(self, eps):
        """Accepted weights far apart give cond(A) above 1e10 on a projector
        M orthogonal to the ones vector. A is still PD, so the map inverts
        A^-1(M) and penalty_value finds A feasible."""
        t, r = 4, 2
        spec = PenaltySpec.cluster(r, *eps)
        q = np.linalg.qr(np.hstack([np.ones((t, 1)),
                                    np.eye(t)[:, :r]]))[0][:, 1:]
        a = _cluster_structure(spec, q @ q.T)
        assert 0.0 < 1e10 * a.eigenvalues[-1] < a.eigenvalues[0]
        assert penalty_value(spec, a) == 0.0

    def test_random_accepted_weights_map_every_assignment_to_pd(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            t = int(rng.integers(2, 7))
            r = int(rng.integers(1, t + 1))
            spec = PenaltySpec.cluster(r, *rng.uniform(0.1, 3.0, size=3))
            try:
                check_tasks(spec, t)
            except BadPenaltyParam:
                continue
            w = project_capped_simplex(rng.uniform(-1.0, 2.0, size=t), r)
            q = np.linalg.qr(rng.standard_normal((t, t)))[0]
            a = _cluster_structure(spec, (q * w) @ q.T)
            assert a.eigenvalues[-1] > 0.0


def dense_cluster_verdict(spec, a):
    """The dense route to cluster membership: form A^-1, recover M from the
    affine map, and test M's eigenvalues (or, when eps_b == eps_w and M
    drops out, compare A^-1 with the map's one value)."""
    t = a.shape[0]
    w = np.linalg.eigvalsh(a)
    if w[0] <= 1e-10 * max(w[-1], 0.0):
        return np.inf
    a_inv = np.linalg.inv(a)
    u = np.full((t, t), 1.0 / t)
    base = (spec.eps_m - spec.eps_b) * u + spec.eps_w * np.eye(t)  # M = 0
    if spec.eps_b == spec.eps_w:
        gap = np.linalg.norm(a_inv - base)
        return 0.0 if gap <= 1e-6 * (1.0 + np.linalg.norm(a_inv)) else np.inf
    m = (a_inv - base) / (spec.eps_b - spec.eps_w)
    mw = np.linalg.eigvalsh(0.5 * (m + m.T))
    ok = (mw[0] >= -1e-6 and mw[-1] <= 1.0 + 1e-6
          and abs(np.sum(mw) - spec.r) <= 1e-6)
    return 0.0 if ok else np.inf


class TestClusterMembership:
    """penalty_value's cluster test, read from A's eigenpairs, against the
    dense route on feasible and infeasible matrices."""

    EPS = ((1.0, 1.5, 0.8), (1.0, 0.6, 2.0), (1.3, 1.0, 1.0))

    def check(self, spec, a, expected):
        ref = dense_cluster_verdict(spec, a)
        assert ref == expected
        assert penalty_value(spec, PsdMatrix(a)) == ref

    @pytest.mark.parametrize("n_tasks", [2, 7, 40])
    @pytest.mark.parametrize("eps", EPS)
    def test_verdicts_match_dense_route(self, n_tasks, eps):
        rng = np.random.default_rng(n_tasks)
        spec = PenaltySpec.cluster(max(1, n_tasks // 3), *eps)
        a = unsupervised_min(spec, PsdMatrix(random_pd(rng, n_tasks)), lam=0.7)
        self.check(spec, a.data, 0.0)
        self.check(spec, 1.1 * a.data, np.inf)
        w, v = np.linalg.eigh(a.data)
        w[n_tasks // 2] *= 1.05  # one eigenvalue perturbed
        self.check(spec, (v * w) @ v.T, np.inf)
        w[0] = 0.0  # singular: outside every cluster set
        self.check(spec, (v * w) @ v.T, np.inf)

    def test_identity_where_infeasible(self):
        for n_tasks in (2, 7, 40):
            for eps in self.EPS:
                spec = PenaltySpec.cluster(max(1, n_tasks // 3), *eps)
                self.check(spec, np.eye(n_tasks), np.inf)


def bisect_capped_simplex(v, r, steps=300):
    """Reference projection: bisection on tau in x = clip(v - tau, 0, 1)."""
    lo, hi = np.min(v) - 1.0, np.max(v)
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if np.sum(np.clip(v - mid, 0.0, 1.0)) > r:
            lo = mid
        else:
            hi = mid
    return np.clip(v - 0.5 * (lo + hi), 0.0, 1.0)


class TestCappedSimplex:
    def test_matches_reference_bisection(self):
        """Every r from 1 to T, on spread, tied and rounded inputs."""
        rng = np.random.default_rng(8)
        for trial in range(400):
            n = int(rng.integers(1, 12))
            v = rng.standard_normal(n) * rng.choice([0.1, 1.0, 30.0])
            if trial % 3 == 1:  # ties, also at distance 1
                v = rng.choice([-1.0, 0.0, 0.5, 1.0, 2.0], size=n)
            elif trial % 3 == 2:
                v = np.round(v, 1)
            for r in range(1, n + 1):
                x = project_capped_simplex(v, r)
                ref = bisect_capped_simplex(v, r)
                assert np.max(np.abs(x - ref)) <= 1e-10 * (1 + np.max(np.abs(v)))
                assert abs(np.sum(x) - r) <= 1e-12 * r

    def test_frozen_example(self):
        out = project_capped_simplex(np.array([0.9, 0.5, 0.2]), 1.0)
        assert_allclose(out, [0.7, 0.3, 0.0], atol=1e-10)

    def test_feasibility_and_idempotence(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.integers(2, 8))
            r = float(rng.integers(1, n + 1))
            v = rng.standard_normal(n) * 2
            x = project_capped_simplex(v, r)
            assert np.all(x >= -1e-12) and np.all(x <= 1 + 1e-12)
            assert abs(np.sum(x) - r) < 1e-9
            assert_allclose(project_capped_simplex(x, r), x, atol=1e-9)

    def test_projection_optimality_against_probes(self):
        rng = np.random.default_rng(4)
        v = rng.standard_normal(5)
        r = 2.0
        x = project_capped_simplex(v, r)
        d0 = np.sum((x - v) ** 2)
        # random feasible points: uniform on the capped simplex via rejection
        count = 0
        while count < 1000:
            cand = rng.random(5)
            cand *= r / np.sum(cand)
            if np.all(cand <= 1.0):
                assert d0 <= np.sum((cand - v) ** 2) + 1e-9
                count += 1

    def test_full_budget(self):
        assert_allclose(project_capped_simplex(np.zeros(3), 3.0), np.ones(3))

    def test_bad_rank(self):
        with pytest.raises(BadRank):
            project_capped_simplex(np.zeros(3), 4.0)


class TestProjectStructure:
    def test_trace_one_projection(self):
        rng = np.random.default_rng(5)
        a = random_pd(rng, 3)
        p = project_structure(PenaltySpec.trace_one(), PsdMatrix(a))
        assert abs(np.trace(p.data) - 1.0) < 1e-9
        # projection is no farther than any probe on the feasible set
        d0 = np.sum((p.data - a) ** 2)
        for _ in range(300):
            g = rng.standard_normal((3, 3))
            q = g @ g.T + 1e-6 * np.eye(3)
            q /= np.trace(q)
            assert d0 <= np.sum((q - a) ** 2) + 1e-8

    def test_fixed_projection(self):
        a0 = np.diag([1.0, 2.0])
        p = project_structure(PenaltySpec.fixed(a0), PsdMatrix(np.eye(2)))
        assert_allclose(p.data, a0)

    def test_cluster_with_equal_weights_projects_to_its_one_point(self):
        # eps_b == eps_w: every assignment maps to the same A
        rng = np.random.default_rng(6)
        spec = PenaltySpec.cluster(2, 1.3, 1.0, 1.0)
        a = unsupervised_min(spec, PsdMatrix(random_pd(rng, 5)), lam=0.7)
        p = project_structure(spec, PsdMatrix(random_pd(rng, 5)))
        assert np.array_equal(p.data, a.data)
        assert penalty_value(spec, p) == 0.0

    def test_schatten_projection_floors_spectrum(self):
        """schatten projects onto {A >= 1e-12 I}: smaller eigenvalues are
        raised to 1e-12 and the eigenvectors are kept."""
        q = np.linalg.qr(np.random.default_rng(8).standard_normal((3, 3)))[0]
        p = project_structure(PenaltySpec.schatten(1.0, 1.0),
                              (q * [2.0, 1e-14, -3.0]) @ q.T)
        assert np.array_equal(p.eigenvalues[1:], [1e-12, 1e-12])
        assert_allclose(p.data, (q * [2.0, 1e-12, 1e-12]) @ q.T, atol=1e-14)
        a = PsdMatrix(random_pd(np.random.default_rng(9), 3))
        assert_allclose(project_structure(PenaltySpec.schatten(2.0, 1.0),
                                          a).data, a.data, atol=1e-14)


class TestBuilders:
    def test_mean_variance_gamma_zero_is_identity(self):
        s = structure_mean_variance(4, 0.0)
        assert_allclose(s.data, np.eye(4))

    def test_mean_variance_rejects_negative_gamma(self):
        with pytest.raises(BadPenaltyParam):
            structure_mean_variance(3, -0.1)

    def test_mean_variance_penalizes_mean(self):
        s = structure_mean_variance(3, 5.0)
        w = np.linalg.eigvalsh(s.data)
        assert w.min() > 0
        # the all-ones direction is shrunk
        ones = np.ones(3) / np.sqrt(3)
        assert ones @ s.data @ ones < 1.0

    def test_graph_empty_adjacency(self):
        s = structure_graph(np.zeros((3, 3)), gamma=2.0)
        assert_allclose(s.data, np.eye(3) / 2.0, atol=1e-12)

    def test_graph_requires_symmetry(self):
        adj = np.zeros((2, 2))
        adj[0, 1] = 1.0
        with pytest.raises(AsymmetricAdjacency):
            structure_graph(adj, gamma=1.0)
        with pytest.raises(AsymmetricAdjacency):
            structure_graph(np.zeros((2, 3)), gamma=1.0)

    @pytest.mark.parametrize("adj, gamma", [
        (np.array([[0.0, -1.0], [-1.0, 0.0]]), 1.0),
        (np.zeros((2, 2)), 0.0),
        (np.zeros((2, 2)), -1.0),
    ], ids=["negative_weight", "zero_gamma", "negative_gamma"])
    def test_graph_rejects_bad_params(self, adj, gamma):
        with pytest.raises(BadPenaltyParam):
            structure_graph(adj, gamma)

    def test_metric_requires_pd(self):
        with pytest.raises(NotPd):
            structure_metric(np.diag([1.0, 0.0]))

    def test_metric_is_used_as_is(self):
        # any positive spectrum, however far below the rank cut
        for theta in (np.array([[2.0, 0.5], [0.5, 1.0]]),
                      np.diag([1.0, 1e-13])):
            assert np.array_equal(structure_metric(theta).data, theta)

    def test_builders_feed_fixed_penalty(self):
        adj = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 2.0], [0.0, 2.0, 0.0]])
        s = structure_graph(adj, gamma=0.5)
        spec = PenaltySpec.fixed(s)
        assert spec.a0 is s
        a = unsupervised_min(spec, PsdMatrix(np.eye(3)), lam=1.0)
        assert_allclose(np.linalg.inv(a.data),
                        np.diag(adj.sum(axis=1)) - adj + 0.5 * np.eye(3),
                        atol=1e-12)

    def test_coding(self):
        l_embed = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        s = structure_coding(l_embed)
        assert_allclose(s.data, l_embed.T @ l_embed, atol=1e-12)


def test_penalty_value_schatten():
    spec = PenaltySpec.schatten(2.0, 3.0)
    a = PsdMatrix(np.diag([2.0, 1.0]))
    assert_allclose(penalty_value(spec, a), 3.0 * (4.0 + 1.0))


def test_penalty_value_indicators():
    a = PsdMatrix(np.diag([0.5, 0.5]))
    assert penalty_value(PenaltySpec.trace_one(), a) == 0.0
    assert penalty_value(PenaltySpec.trace_one(), PsdMatrix(np.eye(2))) == np.inf
    assert penalty_value(PenaltySpec.fixed(np.eye(2)), PsdMatrix(np.eye(2))) == 0.0


def test_fixed_penalty_is_inf_off_its_structure():
    spec = PenaltySpec.fixed(np.eye(2))
    assert penalty_value(spec, PsdMatrix(np.diag([1.0, 1.0 + 1e-6]))) == np.inf


def test_fixed_structure_of_wrong_size_is_bad_penalty_param():
    spec = PenaltySpec.fixed(np.eye(2))
    with pytest.raises(BadPenaltyParam):
        penalty_value(spec, np.eye(3))
    ds3, _ = synth_generate(SyntheticSpec(d=2, n_tasks=3, n_per_task=4), seed=0)
    with pytest.raises(BadPenaltyParam):
        fit(ds3, KernelSpec("linear"), spec, 0.1)


@pytest.mark.parametrize("build, error", [
    (lambda: PenaltySpec.schatten(p=float("inf")), BadPenaltyParam),
    (lambda: PenaltySpec.schatten(p=float("nan")), BadPenaltyParam),
    (lambda: PenaltySpec.schatten(mu=float("inf")), BadPenaltyParam),
    (lambda: PenaltySpec.schatten(mu=float("nan")), BadPenaltyParam),
    (lambda: PenaltySpec.cluster(r=float("inf")), BadRank),
    (lambda: PenaltySpec.cluster(r=float("nan")), BadRank),
    (lambda: PenaltySpec.cluster(r=1.5), BadRank),
    (lambda: PenaltySpec.cluster(eps_m=float("inf")), BadPenaltyParam),
    (lambda: PenaltySpec.cluster(eps_b=float("inf")), BadPenaltyParam),
    (lambda: PenaltySpec.cluster(eps_w=float("nan")), BadPenaltyParam),
], ids=["p_inf", "p_nan", "mu_inf", "mu_nan", "r_inf", "r_nan",
        "r_fraction", "eps_m_inf", "eps_b_inf", "eps_w_nan"])
def test_builders_reject_non_finite_params(build, error):
    with pytest.raises(error):
        build()
